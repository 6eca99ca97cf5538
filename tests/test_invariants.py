import itertools
from fractions import Fraction

import numpy as np
import pytest

from carscid import coefficients as coef
from carscid.invariants import (
    alpha_invariants,
    aquad_invariants,
    IsotropicInvariantSet,
    dependence_report,
    gprime_invariants,
    isotropic_invariants,
    natural_from_isotropic,
)
from carscid.scattering import PropertyTensorSet
from carscid.tensors import epsilon_contract, haar_random_rotation
from conftest import random_rank3_symlast, random_sym2, random_tensor_set, totally_symmetric_rank3

I3 = np.eye(3)

ALPHA_IDENTITY = np.array([81.0, 27, 9, 27, 9, 9, 3, 3, 27, 9])
GPRIME_IDENTITY = np.array([81.0, 27, 9, 27, 27, 9, 9, 3, 3, 9, 9, 3, 27, 9])


class TestAlphaInvariants:
    def test_identity_values(self):
        assert np.array_equal(alpha_invariants(I3, I3), ALPHA_IDENTITY)

    def test_single_component_tensor(self):
        d = np.diag([1.0, 0.0, 0.0])
        assert np.array_equal(alpha_invariants(d, d), np.ones(10))

    def test_first_invariant_is_product_of_traces(self):
        a34 = np.diag([1.0, 2.0, 3.0])
        vals = alpha_invariants(a34, I3)
        assert vals[0] == pytest.approx(6 * 3 * 6 * 3, abs=0.0)

    def test_matches_brute_force(self, rng):
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        vals = alpha_invariants(a34, a12)
        pats = ["ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
                "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl", "ij,ik,kl,jl",
                "ij,kk,ij,ll", "ij,kl,ij,kl"]
        for pat, val in zip(pats, vals):
            subs = pat.split(",")
            total = 0.0
            letters = sorted(set("".join(subs)))
            for assignment in itertools.product(range(3), repeat=len(letters)):
                env = dict(zip(letters, assignment))
                total += (a34[env[subs[0][0]], env[subs[0][1]]]
                          * a12[env[subs[1][0]], env[subs[1][1]]]
                          * a34[env[subs[2][0]], env[subs[2][1]]]
                          * a12[env[subs[3][0]], env[subs[3][1]]])
            assert val == pytest.approx(total, rel=1e-13)


class TestGprimeInvariants:
    def test_identity_values(self):
        assert np.array_equal(gprime_invariants(I3, I3, I3), GPRIME_IDENTITY)

    def test_zero_gprime(self, rng):
        assert np.array_equal(
            gprime_invariants(np.zeros((3, 3)), random_sym2(rng), random_sym2(rng)),
            np.zeros(14))

    def test_first_invariant_definitional(self, rng):
        g = rng.normal(size=(3, 3))
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        vals = gprime_invariants(g, a34, a12)
        assert vals[0] == pytest.approx(
            np.trace(g) * np.trace(a12) * np.trace(a34) * np.trace(a12), rel=1e-13)


class TestAquadInvariants:
    def test_totally_symmetric_all_zero(self, rng):
        a = totally_symmetric_rank3(rng)
        assert np.array_equal(aquad_invariants(a, random_sym2(rng), random_sym2(rng)),
                              np.zeros(10))

    def test_zero(self, rng):
        assert np.array_equal(
            aquad_invariants(np.zeros((3, 3, 3)), random_sym2(rng), random_sym2(rng)),
            np.zeros(10))

    def test_delta_vector_structure(self, rng):
        # A_{i,jn} = delta_jn u_i with identity alphas: everything reduces to
        # contractions of B_ij = eps_mji u_m, whose trace vanishes
        u = rng.normal(size=3)
        a = np.einsum("jn,i->ijn", I3, u)
        vals = aquad_invariants(a, I3, I3)
        b = epsilon_contract(a)
        assert abs(vals[8]) < 1e-15  # 9 * tr(B) with identity alphas
        expected = np.array([
            3 * np.trace(b) * 3, np.trace(b) * 3, 3 * np.trace(b), np.trace(b),
            np.trace(b), 3 * np.trace(b), 3 * np.trace(b), np.trace(b),
            9 * np.trace(b), 3 * np.trace(b)])
        assert np.allclose(vals, expected, atol=1e-14)

    def test_matches_gprime_patterns_with_contracted_tensor(self, rng):
        a = random_rank3_symlast(rng)
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        b = epsilon_contract(a)
        assert np.allclose(aquad_invariants(a, a34, a12),
                           gprime_invariants(b, a34, a12)[4:], atol=0.0)


def residual(name, alpha=np.zeros(10), gprime=np.zeros(14), aquad=np.zeros(10)):
    iso = IsotropicInvariantSet(alpha=alpha, gprime=gprime, aquad=aquad)
    return dependence_report(iso)[name]["residual"]


class TestDependenceRelations:
    def test_identity_values_satisfy_alpha_relation(self):
        assert residual("alpha", alpha=ALPHA_IDENTITY) == 0.0

    def test_identity_values_satisfy_gprime_relation(self):
        assert residual("gprime", gprime=GPRIME_IDENTITY) == 0.0

    def test_zero_inputs(self):
        assert residual("alpha") == 0.0
        assert residual("gprime") == 0.0
        assert residual("aquad") == 0.0

    def test_random_sets_have_vanishing_relative_residuals(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            ts = random_tensor_set(rng)
            report = dependence_report(isotropic_invariants(ts))
            for name in ("alpha", "gprime", "aquad"):
                assert report[name]["relative"] <= 1e-12, name


class TestNaturalInvariants:
    def test_identity_a_values(self):
        iso = isotropic_invariants(PropertyTensorSet(
            alpha34=I3, alpha12=I3, gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3))))
        nat = natural_from_isotropic(iso, 0.1, 0.12)
        assert nat.a[(0, 1, 1)] == pytest.approx(54 / 5, rel=1e-15)
        assert nat.a[(0, 1, 2)] == pytest.approx(-9 / 5, rel=1e-15)
        assert nat.a[(0, 2, 1)] == pytest.approx(-9 / 5, rel=1e-15)
        assert nat.a[(0, 2, 2)] == pytest.approx(9 / 5, rel=1e-15)
        for key in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (4, 1, 1)):
            assert abs(nat.a[key]) < 1e-12

    def test_identity_g_values_document_weight4_defect(self):
        iso = isotropic_invariants(PropertyTensorSet(
            alpha34=I3, alpha12=I3, gprime34=I3, a34=np.zeros((3, 3, 3))))
        nat = natural_from_isotropic(iso, 0.1, 0.12)
        assert nat.g[(0, 1, 1)] == pytest.approx(54 / 5, rel=1e-15)
        assert nat.g[(0, 1, 2)] == pytest.approx(-9 / 5, rel=1e-15)
        assert nat.g[(0, 2, 1)] == pytest.approx(-9 / 5, rel=1e-15)
        assert nat.g[(0, 2, 2)] == pytest.approx(9 / 5, rel=1e-15)
        # the tabulated weight-4 row is nonzero on purely isotropic input;
        # this pins the known inconsistency rather than a desired property
        assert nat.g[(4, 1, 1)] == pytest.approx(45 / 49, rel=1e-12)

    def test_zero_rank3_gives_zero_k(self, rng):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=rng.normal(size=(3, 3)), a34=np.zeros((3, 3, 3)))
        nat = natural_from_isotropic(isotropic_invariants(ts), 0.1, 0.12)
        assert all(v == 0.0 for v in nat.k3.values())
        assert all(v == 0.0 for v in nat.k4.values())

    def test_structural_zero_keys_are_exact(self, rng):
        ts = random_tensor_set(rng)
        nat = natural_from_isotropic(isotropic_invariants(ts), 0.1, 0.12)
        for key in coef.NATURAL_K_ZERO_KEYS:
            assert nat.k3[key] == 0.0
            assert nat.k4[key] == 0.0

    def test_rotation_invariance(self, rng):
        ts = random_tensor_set(rng)
        r = haar_random_rotation(rng)
        rotated = ts.rotated(r)
        nat = natural_from_isotropic(isotropic_invariants(ts), 0.1, 0.12)
        nat_r = natural_from_isotropic(isotropic_invariants(rotated), 0.1, 0.12)
        for table, table_r in ((nat.a, nat_r.a), (nat.g, nat_r.g),
                               (nat.k3, nat_r.k3), (nat.k4, nat_r.k4)):
            for key in table:
                scale = max(abs(table[key]), abs(table_r[key]), 1e-30)
                assert abs(table[key] - table_r[key]) / scale < 1e-12

    def test_enantiomer_parity(self, rng):
        ts = random_tensor_set(rng)
        iso = isotropic_invariants(ts)
        iso_m = isotropic_invariants(ts.enantiomer())
        assert np.array_equal(iso.alpha, iso_m.alpha)
        assert np.array_equal(iso.gprime, -iso_m.gprime)
        assert np.array_equal(iso.aquad, -iso_m.aquad)

    def test_weight0_purity_for_isotropic_alphas(self, rng):
        a34 = 1.7 * I3
        a12 = -0.4 * I3
        g = rng.normal(size=(3, 3))
        ts = PropertyTensorSet(alpha34=a34, alpha12=a12, gprime34=g,
                               a34=random_rank3_symlast(rng))
        nat = natural_from_isotropic(isotropic_invariants(ts), 0.1, 0.12)
        for key, value in nat.a.items():
            if key[0] in (2, 4):
                assert abs(value) < 1e-12, key


class TestExactRationalTables:
    """Coefficient-level identities, exact Fraction arithmetic throughout."""

    def test_alpha_relation_annihilates_identity_values(self):
        total = sum(coef.ALPHA_DEPENDENCE[i] * Fraction(int(ALPHA_IDENTITY[i - 1]))
                    for i in range(1, 11))
        assert total == 0

    def test_electric_natural_form_equals_average_modulo_relation(self):
        expanded = {i: Fraction(0) for i in range(1, 11)}
        for key, c in coef.ELECTRIC_NATURAL_FORM.items():
            for i, w in coef.NATURAL_A_FROM_ALPHA[key].items():
                expanded[i] += c * w
        diff = {i: expanded[i] - coef.ELECTRIC_AVERAGE[i] for i in expanded}
        lam = diff[1] / coef.ALPHA_DEPENDENCE[1]
        assert lam == Fraction(-1, 945)
        for i in range(1, 11):
            assert diff[i] == lam * coef.ALPHA_DEPENDENCE[i], i

    def test_quadrupole_natural_form_probe_block_modulo_relation(self):
        expanded = {i: Fraction(0) for i in range(5, 15)}
        for key, c in coef.QUADRUPOLE_NATURAL_FORM_PROBE.items():
            for i, w in coef.NATURAL_K_FROM_AQUAD[key].items():
                expanded[i] += c * w
        # the probe natural block carries (omega3/(3c)); the closed form's
        # probe block enters as -(k3/3), so compare per (omega3/(3c)) unit
        diff = {i: expanded[i] + coef.QUADRUPOLE_AVERAGE_PROBE[i] for i in expanded}
        lam = diff[5] / coef.AQUAD_DEPENDENCE[5]
        for i in range(5, 15):
            assert diff[i] == lam * coef.AQUAD_DEPENDENCE[i], i

    def test_quadrupole_natural_form_antistokes_block_exact(self):
        expanded = {i: Fraction(0) for i in range(5, 15)}
        for key, c in coef.QUADRUPOLE_NATURAL_FORM_ANTISTOKES.items():
            for i, w in coef.NATURAL_K_FROM_AQUAD[key].items():
                expanded[i] += c * w
        for i in range(5, 15):
            assert (coef.ANTISTOKES_BLOCK_SIGN * expanded[i]
                    == coef.QUADRUPOLE_AVERAGE_ANTISTOKES.get(i, Fraction(0))), i

    def test_magnetic_natural_form_is_not_reconcilable(self):
        expanded = {i: Fraction(0) for i in range(1, 15)}
        for key, c in coef.MAGNETIC_NATURAL_FORM.items():
            for i, w in coef.NATURAL_G_FROM_GPRIME[key].items():
                expanded[i] += c * w
        diff = {i: expanded[i] - coef.MAGNETIC_AVERAGE[i] for i in expanded}
        lam = diff[1] / coef.GPRIME_DEPENDENCE[1]
        mismatched = [i for i in range(1, 15)
                      if diff[i] != lam * coef.GPRIME_DEPENDENCE[i]]
        assert mismatched, "the g rendition unexpectedly became consistent"


def _index_slot(offset):
    return lambda i: i - offset


_A_SLOT = sorted(coef.NATURAL_A_FROM_ALPHA).index
_G_SLOT = sorted(coef.NATURAL_G_FROM_GPRIME).index


class TestCompiledTables:
    """Each float array equals float(Fraction) of its table entry at the entry's
    slot and is 0.0 everywhere else."""

    @pytest.mark.parametrize("array, table, slot, size", [
        (coef.ELECTRIC_AVERAGE_VEC, coef.ELECTRIC_AVERAGE, _index_slot(1), 10),
        (coef.MAGNETIC_AVERAGE_VEC, coef.MAGNETIC_AVERAGE, _index_slot(1), 14),
        (coef.QUADRUPOLE_AVERAGE_PROBE_VEC, coef.QUADRUPOLE_AVERAGE_PROBE,
         _index_slot(5), 10),
        (coef.QUADRUPOLE_AVERAGE_ANTISTOKES_VEC, coef.QUADRUPOLE_AVERAGE_ANTISTOKES,
         _index_slot(5), 10),
        (coef.ALPHA_DEPENDENCE_VEC, coef.ALPHA_DEPENDENCE, _index_slot(1), 10),
        (coef.GPRIME_DEPENDENCE_VEC, coef.GPRIME_DEPENDENCE, _index_slot(1), 14),
        (coef.AQUAD_DEPENDENCE_VEC, coef.AQUAD_DEPENDENCE, _index_slot(5), 10),
        (coef.ELECTRIC_NATURAL_VEC, coef.ELECTRIC_NATURAL_FORM, _A_SLOT, 9),
        (coef.MAGNETIC_NATURAL_VEC, coef.MAGNETIC_NATURAL_FORM, _G_SLOT, 13),
        (coef.QUADRUPOLE_NATURAL_PROBE_VEC, coef.QUADRUPOLE_NATURAL_FORM_PROBE,
         _G_SLOT, 13),
        (coef.QUADRUPOLE_NATURAL_ANTISTOKES_VEC, coef.QUADRUPOLE_NATURAL_FORM_ANTISTOKES,
         _G_SLOT, 13),
    ])
    def test_vectors(self, array, table, slot, size):
        expected = np.zeros(size)
        for key, value in table.items():
            expected[slot(key)] = float(value)
        assert array.shape == (size,)
        assert array.tolist() == expected.tolist()

    @pytest.mark.parametrize("array, table, row_slot, col_slot, shape", [
        (coef.NATURAL_A_FROM_ALPHA_MAT, coef.NATURAL_A_FROM_ALPHA,
         _A_SLOT, _index_slot(1), (9, 10)),
        (coef.NATURAL_G_FROM_GPRIME_MAT, coef.NATURAL_G_FROM_GPRIME,
         _G_SLOT, _index_slot(1), (13, 14)),
        (coef.NATURAL_K_FROM_AQUAD_MAT, coef.NATURAL_K_FROM_AQUAD,
         _G_SLOT, _index_slot(5), (13, 10)),
    ])
    def test_matrices(self, array, table, row_slot, col_slot, shape):
        expected = np.zeros(shape)
        for key, row in table.items():
            for i, value in row.items():
                expected[row_slot(key), col_slot(i)] = float(value)
        assert array.shape == shape
        assert array.tolist() == expected.tolist()

    def test_key_orders(self):
        assert list(coef.A_KEYS) == sorted(coef.NATURAL_A_FROM_ALPHA)
        assert list(coef.G_KEYS) == sorted(coef.NATURAL_G_FROM_GPRIME)
        assert sorted(coef.G_KEYS) == sorted(
            set(coef.NATURAL_K_FROM_AQUAD) | set(coef.NATURAL_K_ZERO_KEYS))

    def test_zero_k_keys(self, rng):
        for key in coef.NATURAL_K_ZERO_KEYS:
            assert key not in coef.NATURAL_K_FROM_AQUAD
            assert not coef.NATURAL_K_FROM_AQUAD_MAT[_G_SLOT(key)].any()
        assert [key for key, zero in zip(coef.G_KEYS, coef.NATURAL_K_ZERO_MASK)
                if zero] == sorted(coef.NATURAL_K_ZERO_KEYS)
        # exact +0.0, never -0.0, whatever the signs of the inputs
        for omega in (0.1, -0.1):
            nat = natural_from_isotropic(isotropic_invariants(random_tensor_set(rng)),
                                         omega, omega)
            for key in coef.NATURAL_K_ZERO_KEYS:
                for k in (nat.k3, nat.k4):
                    assert k[key] == 0.0 and np.copysign(1.0, k[key]) == 1.0, key

    def test_a_mistyped_index_fails(self):
        with pytest.raises(ValueError):
            coef.compiled({4: Fraction(1)}, coef.AQUAD_INDICES)
