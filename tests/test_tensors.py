import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carscid.errors import SymmetryError
from carscid.tensors import (
    LEVI_CIVITA,
    as_rank3_sym_last,
    as_sym_rank2,
    epsilon_contract,
    haar_random_rotation,
    haar_random_rotations,
    rotate_rank2,
    rotate_rank3,
    rotation_about,
)
from conftest import random_rank3_symlast, random_sym2, totally_symmetric_rank3

Z = np.array([0.0, 0.0, 1.0])


class TestValidators:
    def test_sym_rank2_accepts_and_symmetrizes_roundoff(self):
        m = np.eye(3)
        m[0, 1] = 1e-14
        out = as_sym_rank2(m)
        assert np.allclose(out, out.T, atol=0.0)

    def test_sym_rank2_warns_in_repair_band(self):
        m = np.eye(3)
        m[0, 1] = 1e-9
        with pytest.warns(UserWarning):
            out = as_sym_rank2(m)
        assert out[0, 1] == out[1, 0]

    def test_sym_rank2_rejects_gross_asymmetry(self):
        m = np.eye(3)
        m[0, 1] = 0.1
        with pytest.raises(SymmetryError):
            as_sym_rank2(m)

    def test_symmetrizing_huge_entries_stays_finite(self):
        m = np.diag([1e308, -1.7e308, 1.0])
        assert np.array_equal(as_sym_rank2(m), m)
        a = np.zeros((3, 3, 3))
        a[0, 1, 1] = 1.7e308
        assert np.array_equal(as_rank3_sym_last(a), a)

    def test_rank3_accepts_flat_27(self, rng):
        a = random_rank3_symlast(rng)
        out = as_rank3_sym_last(a.reshape(27))
        assert np.array_equal(out, a)

    def test_rank3_rejects_last_pair_asymmetry(self):
        a = np.zeros((3, 3, 3))
        a[0, 1, 2] = 1.0  # missing the (0, 2, 1) partner
        with pytest.raises(SymmetryError):
            as_rank3_sym_last(a)


class TestRotateRank2:
    def test_identity(self, rng):
        t = random_sym2(rng)
        assert np.allclose(rotate_rank2(np.eye(3), t), t, atol=0.0)

    def test_pi_about_z_fixes_axis_aligned_diagonal(self):
        r = rotation_about(Z, math.pi)
        t = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(rotate_rank2(r, t), t, atol=1e-15)

    def test_quarter_turn_permutes_axes(self):
        r = rotation_about(Z, math.pi / 2.0)
        out = rotate_rank2(r, np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0]), atol=1e-15)

    def test_symmetry_preserved(self, rng):
        t = random_sym2(rng)
        r = haar_random_rotation(rng)
        out = rotate_rank2(r, t)
        assert np.allclose(out, out.T, atol=1e-14)


class TestRotateRank3:
    def test_identity(self, rng):
        a = random_rank3_symlast(rng)
        assert np.allclose(rotate_rank3(np.eye(3), a), a, atol=0.0)

    def test_totally_symmetric_stays_totally_symmetric(self, rng):
        a = totally_symmetric_rank3(rng)
        out = rotate_rank3(haar_random_rotation(rng), a)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(out, np.transpose(out, perm), atol=1e-13)

    def test_quarter_turn_maps_single_component(self):
        # A_{x,xx} = 1 under a quarter turn about z lands on A'_{y,yy} = 1
        a = np.zeros((3, 3, 3))
        a[0, 0, 0] = 1.0
        r = rotation_about(Z, math.pi / 2.0)
        out = rotate_rank3(r, a)
        expected = np.zeros((3, 3, 3))
        for i, j, n, aa, bb, cc in itertools.product(range(3), repeat=6):
            expected[i, j, n] += r[i, aa] * r[j, bb] * r[n, cc] * a[aa, bb, cc]
        assert np.allclose(out, expected, atol=0.0)
        assert abs(out[1, 1, 1] - 1.0) < 1e-15

    def test_matches_brute_force_contraction(self, rng):
        a = random_rank3_symlast(rng)
        r = haar_random_rotation(rng)
        expected = np.zeros((3, 3, 3))
        for i, j, n, aa, bb, cc in itertools.product(range(3), repeat=6):
            expected[i, j, n] += r[i, aa] * r[j, bb] * r[n, cc] * a[aa, bb, cc]
        assert np.allclose(rotate_rank3(r, a), expected, atol=1e-14)


class TestEpsilonContract:
    def test_totally_symmetric_gives_exact_zero(self, rng):
        a = totally_symmetric_rank3(rng)
        assert np.array_equal(epsilon_contract(a), np.zeros((3, 3)))

    def test_zero(self):
        assert np.array_equal(epsilon_contract(np.zeros((3, 3, 3))), np.zeros((3, 3)))

    def test_delta_times_vector(self, rng):
        u = rng.normal(size=3)
        a = np.einsum("jn,i->ijn", np.eye(3), u)
        out = epsilon_contract(a)
        expected = np.zeros((3, 3))
        for i, j, m in itertools.product(range(3), repeat=3):
            expected[i, j] += LEVI_CIVITA[m, j, i] * u[m]
        assert np.allclose(out, expected, atol=1e-15)

    def test_transforms_as_rank2(self, rng):
        a = random_rank3_symlast(rng)
        r = haar_random_rotation(rng)
        lhs = epsilon_contract(rotate_rank3(r, a))
        rhs = rotate_rank2(r, epsilon_contract(a))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestHaarSampling:
    def test_deterministic_for_fixed_seed(self):
        a = haar_random_rotations(np.random.default_rng(7), 5)
        b = haar_random_rotations(np.random.default_rng(7), 5)
        assert np.array_equal(a, b)

    def test_samples_are_rotations(self, rng):
        for r in haar_random_rotations(rng, 50):
            assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_first_moment_vanishes(self):
        r = haar_random_rotations(np.random.default_rng(11), 100_000)
        vals = r[:, 0, 0]
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) < 5.0 * stderr

    def test_second_moment_is_one_third(self):
        r = haar_random_rotations(np.random.default_rng(13), 100_000)
        vals = r[:, 0, 0] ** 2
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / 3.0) < 5.0 * stderr


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotation_composition(seed):
    rng = np.random.default_rng(seed)
    r1, r2 = haar_random_rotations(rng, 2)
    t = random_sym2(rng)
    a = random_rank3_symlast(rng)
    assert np.allclose(rotate_rank2(r2, rotate_rank2(r1, t)),
                       rotate_rank2(r2 @ r1, t), atol=1e-12)
    assert np.allclose(rotate_rank3(r2, rotate_rank3(r1, a)),
                       rotate_rank3(r2 @ r1, a), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_full_contractions_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    t = random_sym2(rng)
    a = random_rank3_symlast(rng)
    r = haar_random_rotation(rng)
    tr = rotate_rank2(r, t)
    ar = rotate_rank3(r, a)
    assert abs(np.trace(tr) - np.trace(t)) < 1e-12
    assert abs(np.sum(tr * tr) - np.sum(t * t)) < 1e-12
    assert abs(np.trace(epsilon_contract(ar)) - np.trace(epsilon_contract(a))) < 1e-12
