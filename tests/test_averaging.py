import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from carscid import averaging, scattering
from carscid.averaging import (
    DEFAULT_QUAD_ORDER,
    averaged_electric,
    averaged_magnetic,
    averaged_quadrupole,
    averaged_terms,
    euler_zyz_grid,
    lab_brackets,
    mc_average,
    natural_terms,
    rotated_bracket_terms,
    so3_quadrature_average,
    verify_closed_forms,
)
from carscid.errors import NonConvergence
from carscid.invariants import form, isotropic_invariants, natural_from_isotropic
from carscid.scattering import E_X, E_Y, E_Z, PropertyTensorSet
from carscid.tensors import haar_random_rotations
from conftest import random_sym2, random_tensor_set, totally_symmetric_rank3

I3 = np.eye(3)
C = 137.035999
W3, W4 = 0.10, 0.12

ISO_SET = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=I3,
                            a34=np.zeros((3, 3, 3)))


def iso_of(ts):
    return isotropic_invariants(ts)


class TestClosedFormAnchors:
    def test_electric_identity_is_one_half(self):
        assert averaged_electric(iso_of(ISO_SET)) == pytest.approx(0.5, abs=1e-12)

    def test_electric_single_axis_anchor(self):
        # sphere moments <u_x^8> = 1/9 and <u_x^6 u_y^2> = 1/63 give the
        # frozen expectation (1/9 + 1/63) / 2 = 4/63
        d = np.diag([1.0, 0.0, 0.0])
        ts = PropertyTensorSet(alpha34=d, alpha12=d, gprime34=np.zeros((3, 3)),
                               a34=np.zeros((3, 3, 3)))
        assert averaged_electric(iso_of(ts)) == pytest.approx(4.0 / 63.0, abs=1e-12)

    def test_magnetic_identity_anchor(self):
        assert averaged_magnetic(iso_of(ISO_SET), C) == pytest.approx(
            2.0 / C, abs=1e-12)

    def test_quadrupole_zero_tensor(self, rng):
        ts = random_tensor_set(rng, chiral=False)
        assert averaged_quadrupole(iso_of(ts), W3, W4, C) == 0.0

    def test_quadrupole_totally_symmetric_is_exact_zero(self, rng):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=rng.normal(size=(3, 3)),
                               a34=totally_symmetric_rank3(rng))
        assert averaged_quadrupole(iso_of(ts), W3, W4, C) == 0.0


class TestClosedFormStructure:
    def test_electric_quadratic_in_each_alpha(self, rng):
        ts = random_tensor_set(rng)
        lam = 1.8
        scaled = PropertyTensorSet(alpha34=lam * ts.alpha34, alpha12=ts.alpha12,
                                   gprime34=ts.gprime34, a34=ts.a34)
        assert averaged_electric(iso_of(scaled)) == pytest.approx(
            lam ** 2 * averaged_electric(iso_of(ts)), rel=1e-13)

    def test_magnetic_linear_in_gprime(self, rng):
        ts = random_tensor_set(rng)
        lam = -2.3
        scaled = PropertyTensorSet(alpha34=ts.alpha34, alpha12=ts.alpha12,
                                   gprime34=lam * ts.gprime34, a34=ts.a34)
        assert averaged_magnetic(iso_of(scaled), C) == pytest.approx(
            lam * averaged_magnetic(iso_of(ts), C), rel=1e-13)

    def test_quadrupole_linear_in_rank3(self, rng):
        ts = random_tensor_set(rng)
        lam = 0.7
        scaled = PropertyTensorSet(alpha34=ts.alpha34, alpha12=ts.alpha12,
                                   gprime34=ts.gprime34, a34=lam * ts.a34)
        assert averaged_quadrupole(iso_of(scaled), W3, W4, C) == pytest.approx(
            lam * averaged_quadrupole(iso_of(ts), W3, W4, C), rel=1e-13)

    def test_parity_under_enantiomer_map(self, rng):
        ts = random_tensor_set(rng)
        terms = averaged_terms(ts, W3, W4, C)
        mirror = averaged_terms(ts.enantiomer(), W3, W4, C)
        assert mirror.electric == terms.electric
        assert mirror.magnetic == -terms.magnetic
        assert mirror.quadrupole == -terms.quadrupole

    def test_electric_nonnegative_for_shared_alpha(self, rng):
        a = random_sym2(rng)
        ts = PropertyTensorSet(alpha34=a, alpha12=a, gprime34=np.zeros((3, 3)),
                               a34=np.zeros((3, 3, 3)))
        assert averaged_electric(iso_of(ts)) >= 0.0


class TestQuadratureOracle:
    def test_constant_is_normalized(self):
        res = so3_quadrature_average(lambda r: np.ones(r.shape[0]))
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_second_moment(self):
        res = so3_quadrature_average(lambda r: r[:, 0, 0] ** 2)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_electric_bracket_single_axis_anchor(self):
        d = np.diag([1.0, 0.0, 0.0])
        ts = PropertyTensorSet(alpha34=d, alpha12=d, gprime34=np.zeros((3, 3)),
                               a34=np.zeros((3, 3, 3)))
        fn = rotated_bracket_terms(ts, W3, W4, C)[0]
        assert so3_quadrature_average(fn).value == pytest.approx(
            4.0 / 63.0, abs=1e-12)

    def test_third_moment_analytic_anchor(self):
        # <R_ia R_jb R_kc> = eps_ijk eps_abc / 6; the odd-rank sector that
        # the quadrupole average lives in
        from carscid.tensors import LEVI_CIVITA

        rng = np.random.default_rng(77)
        for _ in range(5):
            i, j, k, a, b, c = rng.integers(0, 3, size=6)
            got = so3_quadrature_average(
                lambda r: r[:, i, a] * r[:, j, b] * r[:, k, c]).value
            want = LEVI_CIVITA[i, j, k] * LEVI_CIVITA[a, b, c] / 6.0
            assert got == pytest.approx(want, abs=1e-14)

    def test_default_order_is_exact_for_degree_eight(self):
        # <R_xx^8> = <u_x^8> = 1/9 for a uniformly distributed unit vector u
        assert DEFAULT_QUAD_ORDER == (10, 5, 10)
        r, w = euler_zyz_grid(DEFAULT_QUAD_ORDER)
        assert abs(w @ r[:, 0, 0] ** 8 - 1.0 / 9.0) <= 1e-14

    def test_default_order_is_exact_for_the_degree_nine_quadrupole(self, rng):
        # against a (30, 30, 30) rule, far above degree 9; round-off is
        # bounded by the mean magnitude of the integrand, not by its average
        fn = lab_brackets(random_tensor_set(rng), W3, W4, C)
        r, w = euler_zyz_grid((30, 30, 30))
        quadrupole = fn(r)[2]
        reference, scale = quadrupole @ w, np.abs(quadrupole) @ w
        r, w = euler_zyz_grid(DEFAULT_QUAD_ORDER)
        for value in (fn(r)[2] @ w, so3_quadrature_average(fn).value[2]):
            assert abs(value - reference) <= 1e-13 * scale

    def test_nonconvergence_at_insufficient_order(self, rng):
        fn = rotated_bracket_terms(random_tensor_set(rng), W3, W4, C)[0]
        with pytest.raises(NonConvergence) as scalar:
            so3_quadrature_average(fn, order=(4, 8, 4))
        message, result = str(scalar.value), scalar.value.result
        assert type(result.value) is float and result.converged is False
        assert message.startswith("order doubling changed the SO(3) average from ")
        assert message.endswith(f" to {result.value!r}")
        assert "np.float64" not in message
        # on a stack, only the offending row is flagged and every row is kept
        with pytest.raises(NonConvergence) as stacked:
            so3_quadrature_average(lambda r: np.stack([np.ones(r.shape[0]), fn(r)]),
                                   order=(4, 8, 4))
        result = stacked.value.result
        assert result.converged.tolist() == [True, False]
        assert result.value[0] == pytest.approx(1.0, abs=1e-13)
        assert result.value[1] == scalar.value.result.value

    def test_stack_matches_scalar_calls(self, rng):
        ts = random_tensor_set(rng)
        scalar_fns = (*rotated_bracket_terms(ts, W3, W4, C),
                      rotated_bracket_terms(ts, W3, W3, C)[2])
        stacked = so3_quadrature_average(lab_brackets(ts, W3, W4, C))
        assert stacked.value.shape == (4,)
        assert stacked.converged.tolist() == [True] * 4
        for k, fn in enumerate(scalar_fns):
            single = so3_quadrature_average(fn)
            assert isinstance(single.value, float)
            assert abs(stacked.value[k] - single.value) <= 1e-15 * abs(single.value)
            assert stacked.convergence[k] == pytest.approx(single.convergence,
                                                           rel=1e-15, abs=0.0)


class TestLabBrackets:
    def test_one_kernel_call_per_batch_gives_every_row_its_own_bits(self, rng, monkeypatch):
        kernel, calls = averaging.vvvr_bracket_terms, []

        def counted(*args, **kwargs):
            calls.append(kwargs["omega4"])
            return kernel(*args, **kwargs)

        ts = random_tensor_set(rng)
        r, _ = euler_zyz_grid(DEFAULT_QUAD_ORDER)
        monkeypatch.setattr(averaging, "vvvr_bracket_terms", counted)
        stack = lab_brackets(ts, W3, W4, C)(r)
        assert len(calls) == 1
        lab = averaging.lab_components(ts, r[..., 0, :], r[..., 1, :], r[..., 2, :])
        want = (*kernel(*lab, omega3=W3, omega4=W4, c=C),
                kernel(*lab, omega3=W3, omega4=W3, c=C)[2])
        for row, value in zip(stack, want):
            assert row.tobytes() == value.tobytes()

    def test_each_evaluator_is_its_lab_brackets_row(self, rng):
        ts = random_tensor_set(rng)
        evaluators = rotated_bracket_terms(ts, W3, W4, C)
        brackets = lab_brackets(ts, W3, W4, C)
        r, _ = euler_zyz_grid((6, 4, 6))
        r.setflags(write=False)
        batch = r.copy()  # writable, and changed between calls
        for rotations in (r[:50], batch, batch, r[:50]):
            assert rotations.flags.writeable == (rotations is batch)
            rows = brackets(rotations)
            for row, evaluate in zip(rows, evaluators):
                assert evaluate(rotations).tobytes() == row.tobytes()
            batch[:] = batch[::-1]


def einsum_lab_components(tensors, x, y, z):
    """The row-major einsum/matmul formulation of `lab_components` that the
    component-first kernel replaced, kept verbatim as the bit reference."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))

    def dot(u, v):
        return np.einsum("...a,...a->...", u, v)

    def t(a):
        return np.swapaxes(a, -1, -2)

    alpha34_x = x @ t(tensors.alpha34)
    g = tensors.gprime34
    # A34 contracted with z once; the A components are bilinear forms of it
    a34 = tensors.a34
    az = z @ t(a34.reshape(a34.shape[:-3] + (9, 3)))
    az = az.reshape(az.shape[:-1] + (3, 3))
    az_x = np.einsum("...ab,...b->...a", az, x)
    az_y = np.einsum("...ab,...b->...a", az, y)
    return (dot(x, alpha34_x), dot(y, alpha34_x), dot(x, x @ t(tensors.alpha12)),
            dot(x, x @ t(g)) + dot(y, y @ t(g)),
            dot(y, az_x), dot(x, az_y), dot(x, az_x))


class TestComponentFirstKernel:
    """`lab_components` keeps the bits of the einsum formulation on every batch
    shape, across chunk seams, and through the Monte Carlo oracle."""

    CHUNK = averaging.CHUNK

    @staticmethod
    def assert_same_components(ts, *axes):
        got = averaging.lab_components(ts, *axes)
        want = einsum_lab_components(ts, *axes)
        assert len(got) == len(want) == 7
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_rotation_batches(self, n, rng):
        ts = random_tensor_set(rng)
        r = haar_random_rotations(np.random.default_rng(n), n)
        self.assert_same_components(ts, r[..., 0, :], r[..., 1, :], r[..., 2, :])

    @pytest.mark.parametrize("n", [0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
    def test_unit_stride_rows_are_read_in_place(self, n, rng):
        # the oracles' batches: (N, 3, 3) views of one (3, 3, N) array
        ts = random_tensor_set(rng)
        r = haar_random_rotations(np.random.default_rng(n), n)
        rows = np.ascontiguousarray(np.moveaxis(r, 0, -1))
        strided = [rows[i].T for i in range(3)]
        copies = [np.ascontiguousarray(rows[i]).T for i in range(3)]
        for axes in (strided, copies):
            for axis in axes:  # an empty batch has no memory to share
                assert n == 0 or np.shares_memory(scattering._planes(axis), axis)
        got = averaging.lab_components(ts, *strided)
        for want in (averaging.lab_components(ts, *copies),
                     einsum_lab_components(ts, r[..., 0, :], r[..., 1, :], r[..., 2, :])):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_a_two_axis_batch(self, rng):
        ts = random_tensor_set(rng)
        r = haar_random_rotations(np.random.default_rng(9), 1000).reshape(10, 100, 3, 3)
        self.assert_same_components(ts, r[..., 0, :], r[..., 1, :], r[..., 2, :])

    def test_a_stack_of_sets_on_the_unit_axes(self, rng):
        sets = [random_tensor_set(rng) for _ in range(4)]
        ts = PropertyTensorSet(**{name: np.stack([getattr(s, name) for s in sets])
                                  for name in ("alpha34", "alpha12", "gprime34", "a34")})
        self.assert_same_components(ts, E_X, E_Y, E_Z)
        for s in sets:
            self.assert_same_components(s, E_X, E_Y, E_Z)

    def test_monte_carlo_over_three_chunks(self, rng, monkeypatch):
        # 20000 = 2 * 8192 + 3616: two full chunks and one partial
        samples, seed = 20_000, 24
        assert samples // self.CHUNK == 2 and samples % self.CHUNK
        ts = random_tensor_set(rng)
        got = mc_average(lab_brackets(ts, W3, W4, C), samples, seed)
        monkeypatch.setattr(averaging, "lab_components", einsum_lab_components)
        want = mc_average(lab_brackets(ts, W3, W4, C), samples, seed)
        assert same_bits((got.mean, got.stderr), (want.mean, want.stderr))


class TestOracleInputsBuiltOnce:
    def test_grids_and_haar_batch_are_shared_between_runs(self, rng, monkeypatch):
        builds = {"grid": 0, "haar": 0}

        def counted(name, fn):
            def wrapper(*args):
                builds[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(averaging, "euler_zyz_grid",
                            counted("grid", averaging.euler_zyz_grid))
        monkeypatch.setattr(averaging, "haar_random_rotations",
                            counted("haar", averaging.haar_random_rotations))
        averaging._grid.cache_clear()
        averaging._haar_batch.cache_clear()
        ts = random_tensor_set(rng)
        first, second = (verify_closed_forms(ts, W3, W4, c=C, mc_samples=2000, seed=13)
                         for _ in range(2))
        assert builds == {"grid": 2, "haar": 1}
        assert (json.dumps(first.to_dict(), indent=2, sort_keys=True)
                == json.dumps(second.to_dict(), indent=2, sort_keys=True))

    @pytest.mark.parametrize("samples,seed", [(1000, 3), (100_000, 7)])
    def test_the_haar_batch_is_the_public_draw_as_rows(self, samples, seed):
        batch = averaging._haar_batch(samples, seed)
        assert np.array_equal(batch, haar_random_rotations(np.random.default_rng(seed), samples))
        assert np.moveaxis(batch, 0, -1).flags.c_contiguous and not batch.flags.writeable

    def test_the_haar_batch_is_drawn_into_its_rows_chunk_by_chunk(self):
        samples = 100_000
        averaging._haar_batch(1000, 5)  # one-off allocations of a first draw, untraced
        averaging._haar_batch.cache_clear()
        tracemalloc.start()
        try:
            averaging._haar_batch(samples, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            averaging._haar_batch.cache_clear()
        assert peak <= 1.25 * 9 * samples * 8  # 2.1 with the whole draw copied into rows

    # sha256 of the C-ordered (N, 3, 3) rotations and of the weights
    GRID_PINS = {
        (10, 5, 10): ("7fc7add90a9a35aaf1eb03844c741dcbf969da270381642e04a36dd74d3dc799",
                      "1e95c209b00371fcb2939d074d4eed1c7ca08fecf35f09caed93b56234483a4a"),
        (20, 10, 20): ("a19ea2f97ed14d71164d9316a662e1525decc4f2cb357eb55c93d5cf60a1937b",
                       "83c5b3130d725a5020ee88ec889438d6cdf99fd3d7d94eb4d7ea4ea4d107ae86"),
        (3, 2, 5): ("82e1f346cae690dc157b868b08cee383896d408463f32b011dc8c4efc4f0bb30",
                    "7167e0f927f7f81d8901d74d1437547d71ad0f644532f700c81bbc439b0aedfe"),
        (16, 8, 16): ("71c95d1b683536654820180fdd90575f372fbf6cfac061d68cf74a9474111b8e",
                      "3d89b61e4ddd6f695425c7f3a0c32a9fdff2f32c6451a2409c7fada69bc613c5"),
        (7, 3, 1): ("c9c1d96b46a2fd93b1d66dc320968d662877d1b5721bdcc5648d7b3457854f94",
                    "668ab244b9e14f595d734fbcc6971c9f5bc3116251eafff6184e49a3f678ce5b"),
    }

    @pytest.mark.parametrize("order", list(GRID_PINS))
    def test_the_grid_keeps_its_bits(self, order):
        rotations, weights = euler_zyz_grid(order)
        assert (hashlib.sha256(np.ascontiguousarray(rotations)).hexdigest(),
                hashlib.sha256(weights).hexdigest()) == self.GRID_PINS[order]

    @pytest.mark.parametrize("order", list(GRID_PINS))
    def test_the_grid_is_a_view_of_its_rows(self, order):
        assert np.moveaxis(euler_zyz_grid(order)[0], 0, -1).flags.c_contiguous

    def test_the_grid_is_built_straight_into_its_rows(self):
        averaging._grid((4, 4, 4))  # one-off allocations of a first build, untraced
        averaging._grid.cache_clear()
        tracemalloc.start()
        try:
            averaging._grid((40, 40, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            averaging._grid.cache_clear()
        assert peak <= 1.5 * 9 * 40**3 * 8  # 2.11 with meshgrids and a copy into rows

    @pytest.mark.parametrize("order", [DEFAULT_QUAD_ORDER, (20, 10, 20), (3, 2, 5)])
    def test_the_grid_is_the_public_grid_as_rows(self, order):
        rotations, weights = averaging._grid(order)
        want_rotations, want_weights = euler_zyz_grid(order)
        assert np.array_equal(rotations, want_rotations)
        assert np.array_equal(weights, want_weights)
        assert np.moveaxis(rotations, 0, -1).flags.c_contiguous
        assert not (rotations.flags.writeable or weights.flags.writeable)
        for array in (rotations, weights):
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_shared_rotations_are_read_only(self):
        def ones(r):
            assert not r.flags.writeable
            return np.ones(len(r))

        so3_quadrature_average(ones)
        mc_average(ones, 1000, seed=3)



def scalar_integrand(r):
    return r[:, 0, 0] ** 2 * r[:, 1, 2] + r[:, 2, 1] ** 3


def mc_whole_batch(fn, samples, seed):
    """(mean, stderr) of `fn` on the whole Haar batch, reduced as one array."""
    values = np.asarray(fn(averaging._haar_batch(samples, seed)), dtype=float)
    e = np.frexp(np.abs(values).max(axis=-1))[1]
    values = np.ldexp(values, -np.expand_dims(e, -1))
    return (np.ldexp(values.mean(axis=-1), e),
            np.ldexp(values.std(ddof=1, axis=-1) / math.sqrt(samples), e))


def quadrature_whole_grid(fn, order):
    """(value, convergence) of `fn` on the whole grids of `order` and its double."""
    r1, w1 = euler_zyz_grid(order)
    r2, w2 = euler_zyz_grid([2 * n for n in order])
    v1 = form(w1, np.asarray(fn(r1), dtype=float))
    v2 = form(w2, np.asarray(fn(r2), dtype=float))
    return v2, np.abs(v2 - v1)


def same_bits(got, want):
    return all(np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
               for g, w in zip(got, want))


class TestChunkedEvaluation:
    """Both oracles call the integrand on slices of at most `averaging.CHUNK`
    rotations; every value keeps the bits of one call on the whole batch."""

    CHUNK = averaging.CHUNK
    SAMPLES = [1000, CHUNK - 1, CHUNK, CHUNK + 1, 100_000]

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_monte_carlo_matches_the_whole_batch(self, samples, rng):
        for fn in (lab_brackets(random_tensor_set(rng), W3, W4, C), scalar_integrand):
            got = mc_average(fn, samples, seed=21)
            assert same_bits((got.mean, got.stderr), mc_whole_batch(fn, samples, 21))

    @pytest.mark.parametrize("order", [DEFAULT_QUAD_ORDER, (16, 8, 16)])
    def test_quadrature_matches_the_whole_grid(self, order, rng):
        # the default doubled grid is one slice, the other's takes more
        assert order == DEFAULT_QUAD_ORDER or 8 * math.prod(order) > self.CHUNK
        for fn in (lab_brackets(random_tensor_set(rng), W3, W4, C), scalar_integrand):
            got = so3_quadrature_average(fn, order=order)
            assert same_bits((got.value, got.convergence), quadrature_whole_grid(fn, order))

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_the_integrand_sees_consecutive_slices(self, samples):
        seen = []

        def ones(r):
            seen.append(r)
            return np.ones(len(r))

        mc_average(ones, samples, seed=22)
        batch = averaging._haar_batch(samples, 22)
        full, rest = divmod(samples, self.CHUNK)
        assert [len(r) for r in seen] == [self.CHUNK] * full + ([rest] if rest else [])
        assert np.array_equal(np.concatenate(seen), batch)

    def test_the_peak_is_gathered_over_every_chunk(self, rng):
        batch = averaging._haar_batch(20_000, 25)
        for fn in (lab_brackets(random_tensor_set(rng), W3, W4, C), scalar_integrand):
            values, peak = averaging._evaluate(fn, batch)
            assert peak.tobytes() == np.abs(values).max(axis=-1).tobytes()

    @pytest.mark.parametrize("integrand,shape", [
        (lambda r: r[:, 2, 2].mean() ** 2 + 1.0, r"\(\)"),  # one value per batch
        (lambda r: np.ones((2, 1)), r"\(2, 1\)"),
        (lambda r: np.ones(len(r) - 1), r"\((499|8191),\)"),
        # the first chunk is well formed, the last (20000 = 2 * 8192 + 3616) is not
        (lambda r: np.ones((2, len(r))) if len(r) == TestChunkedEvaluation.CHUNK
         else np.ones(len(r)), r"\(3616,\)"),
    ])
    def test_a_malformed_integrand_is_refused(self, integrand, shape):
        # once broadcast over the chunk: the quadrature of the first gave
        # 1.0000000000000002 and the Monte Carlo of the second [1., 1.]
        chunk = r"(500|3616|8192)"
        message = rf"^integrand returned shape {shape} for a chunk of {chunk} rotations"
        if "3616" not in shape:
            with pytest.raises(ValueError, match=message):
                so3_quadrature_average(integrand)
        with pytest.raises(ValueError, match=message):
            mc_average(integrand, 20_000, 1)

    def test_monte_carlo_memory_follows_the_result_not_the_batch(self, rng):
        # the whole-batch evaluation peaked at 6.5 times the (4, N) result
        fn = lab_brackets(random_tensor_set(rng), W3, W4, C)
        samples = 100_000
        averaging._haar_batch(samples, 23)  # drawn and cached before tracing
        tracemalloc.start()
        try:
            mc_average(fn, samples, seed=23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 4 * samples * 8  # 2.0 with (K, N) temporaries in the reductions


def _edge_rows(n: int) -> dict:
    """Rows of `n` values that stress the scaled mean and standard deviation."""
    rng = np.random.default_rng(n)
    with_inf, with_nan = rng.normal(size=n), rng.normal(size=n)
    with_inf[n // 3], with_nan[n // 2] = np.inf, np.nan
    return {
        "constant": np.full(n, 0.3),
        "negative-zero": np.full(n, -0.0),
        "near-1e300": 1e300 * (1.0 + rng.random(n)),
        "subnormal": np.ldexp(rng.random(n), -1060),
        "inf": with_inf,
        "nan": with_nan,
    }


class TestMonteCarloReductions:
    """`mc_average` forms its mean and deviations in place; its bits and its
    warnings stay those of `mean()` and `std(ddof=1)` on the whole batch."""

    SAMPLES = 20_000  # two full chunks and one partial

    @staticmethod
    def table_integrand(table):
        """An integrand that hands out consecutive slices of `table`."""
        start = [0]

        def fn(r):
            lo = start[0]
            start[0] += len(r)
            return table[..., lo:lo + len(r)]

        return fn

    def reduce_both_ways(self, table):
        outcomes = []
        for reduce in (lambda fn: astuple(mc_average(fn, self.SAMPLES, seed=26)),
                       lambda fn: mc_whole_batch(fn, self.SAMPLES, 26)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = reduce(self.table_integrand(table))
            outcomes.append((result, [(w.category, str(w.message)) for w in caught]))
        return outcomes

    @pytest.mark.parametrize("kind", list(_edge_rows(8)))
    def test_one_row(self, kind):
        (got, got_warnings), (want, want_warnings) = self.reduce_both_ways(
            _edge_rows(self.SAMPLES)[kind])
        assert same_bits(got, want) and got_warnings == want_warnings

    def test_a_stack_of_rows(self):
        table = np.stack(list(_edge_rows(self.SAMPLES).values()))
        (got, got_warnings), (want, want_warnings) = self.reduce_both_ways(table)
        assert same_bits(got, want) and got_warnings == want_warnings
        assert np.isnan(got[0][-1]) and np.isinf(got[0][-2])


class TestMonteCarloOracle:
    def test_constant(self):
        res = mc_average(lambda r: np.ones(r.shape[0]), 2000, seed=5)
        assert res.mean == 1.0
        assert res.stderr == 0.0

    def test_second_moment_within_band(self):
        res = mc_average(lambda r: r[:, 0, 0] ** 2, 1_000_000, seed=6)
        assert abs(res.mean - 1.0 / 3.0) <= 5.0 * res.stderr

    def test_deterministic_per_seed(self):
        f = lambda r: r[:, 0, 1] ** 2
        a = mc_average(f, 5000, seed=7)
        b = mc_average(f, 5000, seed=7)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_average(lambda r: np.ones(r.shape[0]), 10, seed=1)

    def test_stack_matches_scalar_calls(self, rng):
        ts = random_tensor_set(rng)
        scalar_fns = (*rotated_bracket_terms(ts, W3, W4, C),
                      rotated_bracket_terms(ts, W3, W3, C)[2])
        stacked = mc_average(lab_brackets(ts, W3, W4, C), 5000, seed=7)
        assert stacked.mean.shape == stacked.stderr.shape == (4,)
        for k, fn in enumerate(scalar_fns):
            single = mc_average(fn, 5000, seed=7)
            assert (stacked.mean[k], stacked.stderr[k]) == (single.mean, single.stderr)


class TestOracleAgreement:
    """Closed forms against both oracles on seeded random tensor sets."""

    def test_electric_twenty_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            ts = random_tensor_set(rng)
            closed = averaged_electric(iso_of(ts))
            fn = rotated_bracket_terms(ts, W3, W4, C)[0]
            quad = so3_quadrature_average(fn).value
            assert closed == pytest.approx(quad, rel=1e-9)

    def test_magnetic_twenty_sets(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            ts = random_tensor_set(rng)
            closed = averaged_magnetic(iso_of(ts), C)
            fn = rotated_bracket_terms(ts, W3, W4, C)[1]
            quad = so3_quadrature_average(fn).value
            assert closed == pytest.approx(quad, rel=1e-9, abs=1e-18)

    def test_electric_and_magnetic_against_monte_carlo(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            ts = random_tensor_set(rng)
            iso = iso_of(ts)
            fe, fm, _ = rotated_bracket_terms(ts, W3, W4, C)
            for closed, fn in ((averaged_electric(iso), fe),
                               (averaged_magnetic(iso, C), fm)):
                mc = mc_average(fn, 100_000, seed=104)
                assert abs(closed - mc.mean) <= 5.0 * mc.stderr + 1e-12

    def test_quadrupole_exact_at_equal_frequencies(self):
        # the tabulated quadrupole coefficients reproduce the oracle exactly
        # when both frequency blocks carry the same wavenumber
        rng = np.random.default_rng(105)
        for _ in range(20):
            ts = random_tensor_set(rng)
            closed = averaged_quadrupole(iso_of(ts), W3, W3, C)
            fn = rotated_bracket_terms(ts, W3, W3, C)[2]
            quad = so3_quadrature_average(fn).value
            assert closed == pytest.approx(quad, rel=1e-12, abs=1e-18)

    def test_left_analyzer_average_at_equal_frequencies(self):
        # <left-analyzer strength> = electric - magnetic - quadrupole in the
        # sector where the closed forms are exact
        rng = np.random.default_rng(107)
        for _ in range(5):
            ts = random_tensor_set(rng)
            fe, fm, fq = rotated_bracket_terms(ts, W3, W3, C)
            left = so3_quadrature_average(lambda r: fe(r) - fm(r) - fq(r)).value
            iso = iso_of(ts)
            closed = (averaged_electric(iso) - averaged_magnetic(iso, C)
                      - averaged_quadrupole(iso, W3, W3, C))
            assert left == pytest.approx(closed, rel=1e-12)

    def test_quadrupole_defect_is_proportional_to_wavenumber_split(self):
        # at omega3 != omega4 the closed form deviates from the oracle; the
        # deviation scales exactly with (k3 - k4), pinning the defect to the
        # apportionment between the two frequency blocks
        rng = np.random.default_rng(106)
        for _ in range(5):
            ts = random_tensor_set(rng)

            def defect(w3, w4):
                closed = averaged_quadrupole(iso_of(ts), w3, w4, C)
                fn = rotated_bracket_terms(ts, w3, w4, C)[2]
                return closed - so3_quadrature_average(fn).value

            d1 = defect(0.10, 0.12)
            d2 = defect(0.10, 0.16)
            assert abs(d1) > 1e-12  # the deviation is real, not round-off
            ratio = (0.10 - 0.12) / (0.10 - 0.16)
            assert d2 * ratio == pytest.approx(d1, rel=1e-9)


class TestNaturalRenditions:
    def test_electric_rendition_matches_closed(self, rng):
        for _ in range(10):
            ts = random_tensor_set(rng)
            iso = iso_of(ts)
            nat = natural_from_isotropic(iso, W3, W4)
            assert natural_terms(nat).electric == pytest.approx(
                averaged_electric(iso), rel=1e-12)

    def test_quadrupole_rendition_matches_closed(self, rng):
        for _ in range(10):
            ts = random_tensor_set(rng)
            iso = iso_of(ts)
            nat = natural_from_isotropic(iso, W3, W4)
            assert natural_terms(nat, C).quadrupole == pytest.approx(
                averaged_quadrupole(iso, W3, W4, C), rel=1e-12, abs=1e-20)

    def test_magnetic_rendition_isotropic_deviation(self):
        # frozen expectation: the tabulated g form gives 13038/8575 per 1/c on
        # the isotropic input, against the closed form's exact 2/c
        iso = iso_of(ISO_SET)
        nat = natural_from_isotropic(iso, W3, W4)
        rendition = natural_terms(nat, C).magnetic
        assert rendition == pytest.approx(float(Fraction(13038, 8575)) / C,
                                          rel=1e-12)
        closed = averaged_magnetic(iso, C)
        assert abs(rendition - closed) / abs(closed) > 1e-9


class TestVerifyReport:
    def test_isotropic_fixture_reports_finding_and_exit_2(self):
        report = verify_closed_forms(ISO_SET, W3, W4, c=C, mc_samples=2000,
                                     seed=11)
        assert report.authoritative_pass
        assert not report.natural_pass
        assert report.exit_code() == 2
        failing = [r.term for r in report.renditions if not r.passed]
        assert failing == ["magnetic"]
        text = report.to_text()
        assert "FAIL" in text and "PASS" in text

    def test_chiral_set_flags_quadrupole_split_and_exit_1(self):
        rng = np.random.default_rng(12)
        ts = random_tensor_set(rng)
        report = verify_closed_forms(ts, W3, W4, c=C, mc_samples=2000, seed=13)
        by_term = {c.term: c for c in report.checks}
        assert by_term["electric"].passed
        assert by_term["magnetic"].passed
        assert not by_term["quadrupole"].passed
        assert by_term["quadrupole (equal-frequency)"].passed
        assert report.exit_code() == 1

    def test_totally_symmetric_rank3_passes_trivially(self, rng):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=rng.normal(size=(3, 3)),
                               a34=totally_symmetric_rank3(rng))
        report = verify_closed_forms(ts, W3, W3, c=C, mc_samples=2000, seed=14)
        by_term = {c.term: c for c in report.checks}
        assert by_term["quadrupole"].passed
        assert by_term["quadrupole"].closed == 0.0

    def test_report_serializes(self):
        report = verify_closed_forms(ISO_SET, W3, W4, c=C, mc_samples=2000,
                                     seed=15)
        payload = report.to_dict()
        assert payload["exit_code"] == 2
        assert len(payload["checks"]) == 4
        assert json.dumps(report.to_dict(), indent=2, sort_keys=True).startswith("{")
