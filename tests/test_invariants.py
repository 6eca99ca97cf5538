import hashlib
import itertools
import math
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from carscid import coefficients as coef
from carscid.averaging import natural_terms
from carscid.cid import delta_eq12, delta_eq13
from carscid.errors import NonFiniteResult
from carscid.invariants import (
    _BLOCK,
    _INVARIANTS,
    _RANK2_PATTERNS,
    _plan,
    IsotropicInvariantSet,
    dependence_report,
    isotropic_invariants,
    natural_from_isotropic,
    pattern_sums,
)
from carscid.scattering import C_AU, PropertyTensorSet, random_property_tensors
from carscid.tensors import epsilon_contract, haar_random_rotation
from conftest import random_rank3_symlast, random_sym2, random_tensor_set, totally_symmetric_rank3

I3 = np.eye(3)

ALPHA_IDENTITY = np.array([81.0, 27, 9, 27, 9, 9, 3, 3, 27, 9])
GPRIME_IDENTITY = np.array([81.0, 27, 9, 27, 27, 9, 9, 3, 3, 9, 9, 3, 27, 9])

# [G']_1..14 and [B]_1..14, factor order T, alpha12, alpha34, alpha12
RANK2_PATTERNS = ["ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
                  "ij,ij,kk,ll", "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl",
                  "ij,ik,kl,jl", "ij,ik,ll,jk", "ij,jk,ik,ll", "ij,jk,il,kl",
                  "ij,kk,ij,ll", "ij,kl,ij,kl"]


def invariants_of(alpha34=I3, alpha12=I3, gprime34=np.zeros((3, 3)),
                  a34=np.zeros((3, 3, 3))):
    return isotropic_invariants(PropertyTensorSet(alpha34=alpha34, alpha12=alpha12,
                                                  gprime34=gprime34, a34=a34))


def brute_force(pattern, factors):
    """The full contraction `pattern` of four 3x3 factors by index loops."""
    subs = pattern.split(",")
    total = 0.0
    letters = sorted(set("".join(subs)))
    for assignment in itertools.product(range(3), repeat=len(letters)):
        env = dict(zip(letters, assignment))
        term = 1.0
        for sub, factor in zip(subs, factors):
            term *= factor[env[sub[0]], env[sub[1]]]
        total += term
    return total


class TestAlphaInvariants:
    def test_identity_values(self):
        assert np.array_equal(invariants_of(I3, I3).alpha, ALPHA_IDENTITY)

    def test_single_component_tensor(self):
        d = np.diag([1.0, 0.0, 0.0])
        assert np.array_equal(invariants_of(d, d).alpha, np.ones(10))

    def test_first_invariant_is_product_of_traces(self):
        a34 = np.diag([1.0, 2.0, 3.0])
        vals = invariants_of(a34, I3).alpha
        assert vals[0] == pytest.approx(6 * 3 * 6 * 3, abs=0.0)

    def test_matches_brute_force(self, rng):
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        vals = invariants_of(a34, a12).alpha
        pats = ["ii,jj,kk,ll", "ii,jj,kl,kl", "ii,jk,jl,kl", "ii,jk,ll,jk",
                "ij,ij,kl,kl", "ij,ik,jk,ll", "ij,ik,jl,kl", "ij,ik,kl,jl",
                "ij,kk,ij,ll", "ij,kl,ij,kl"]
        for pat, val in zip(pats, vals):
            assert val == pytest.approx(brute_force(pat, (a34, a12, a34, a12)), rel=1e-13)


class TestGprimeInvariants:
    def test_identity_values(self):
        assert np.array_equal(invariants_of(I3, I3, gprime34=I3).gprime, GPRIME_IDENTITY)

    def test_zero_gprime(self, rng):
        assert np.array_equal(
            invariants_of(random_sym2(rng), random_sym2(rng)).gprime, np.zeros(14))

    def test_first_invariant_definitional(self, rng):
        g = rng.normal(size=(3, 3))
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        vals = invariants_of(a34, a12, gprime34=g).gprime
        assert vals[0] == pytest.approx(
            np.trace(g) * np.trace(a12) * np.trace(a34) * np.trace(a12), rel=1e-13)

    def test_matches_brute_force(self, rng):
        g = rng.normal(size=(3, 3))
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        vals = invariants_of(a34, a12, gprime34=g).gprime
        assert len(vals) == len(RANK2_PATTERNS)
        for pat, val in zip(RANK2_PATTERNS, vals):
            assert val == pytest.approx(brute_force(pat, (g, a12, a34, a12)), rel=1e-13)


class TestAquadInvariants:
    def test_totally_symmetric_all_zero(self, rng):
        a = totally_symmetric_rank3(rng)
        assert np.array_equal(invariants_of(random_sym2(rng), random_sym2(rng), a34=a).aquad,
                              np.zeros(10))

    def test_zero(self, rng):
        assert np.array_equal(
            invariants_of(random_sym2(rng), random_sym2(rng)).aquad, np.zeros(10))

    def test_delta_vector_structure(self, rng):
        # A_{i,jn} = delta_jn u_i with identity alphas: everything reduces to
        # contractions of B_ij = eps_mji u_m, whose trace vanishes
        u = rng.normal(size=3)
        a = np.einsum("jn,i->ijn", I3, u)
        vals = invariants_of(I3, I3, a34=a).aquad
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
        iso = invariants_of(a34, a12, gprime34=b, a34=a)
        assert np.allclose(iso.aquad, iso.gprime[4:], atol=0.0)

    def test_matches_brute_force(self, rng):
        a = random_rank3_symlast(rng)
        a34 = random_sym2(rng)
        a12 = random_sym2(rng)
        # B_ij = eps_mni A_mnj, with eps_mni = (m - n)(n - i)(i - m) / 2 on 0, 1, 2
        b = np.zeros((3, 3))
        for i, j, m, n in itertools.product(range(3), repeat=4):
            b[i, j] += (m - n) * (n - i) * (i - m) / 2 * a[m, n, j]
        vals = invariants_of(a34, a12, a34=a).aquad
        assert len(vals) == len(RANK2_PATTERNS[4:])
        for pat, val in zip(RANK2_PATTERNS[4:], vals):
            assert val == pytest.approx(brute_force(pat, (b, a12, a34, a12)), rel=1e-13)


class TestInvariantBits:
    # float.hex of the 34 invariants of this set, recorded when each family had
    # its own einsum loop: a reordered contraction shows up here, not as drift
    ALPHA = ["0x1.015447ab1da8cp+2", "-0x1.a06441c1e348ep+1", "-0x1.ac8020c2c2518p+1",
             "0x1.3afd54deec44dp+3", "0x1.50e3326d9e284p+1", "0x1.c9b217e361e8ep+1",
             "0x1.d07459b02f420p+2", "0x1.f5eac65aaa326p-2", "0x1.6fc32fa796020p+3",
             "0x1.c22af72ed5526p+4"]
    GPRIME = ["0x1.ccc4f7ad12badp+1", "-0x1.74cabd41b8dd5p+1", "-0x1.7fa2072c496ddp+1",
              "0x1.1a01ee17365a0p+3", "-0x1.17a08e15c7feap+3", "0x1.c478fa164dab6p+2",
              "0x1.07b89af3c9a76p+0", "0x1.d998ca0976dbfp+1", "0x1.2d75a0b6fd4c3p+2",
              "-0x1.e0143e0ff8e01p+2", "0x1.40eca77f3148fp+1", "0x1.5382f12781069p+2",
              "0x1.9339d6d72d5bfp+2", "0x1.ed93e4c19a8b5p+3"]
    AQUAD = ["0x1.5f8b70769b0bcp+2", "-0x1.1c6c1299de60ep+2", "-0x1.ca7128ddbcce9p-1",
             "-0x1.528a51f3ac5b0p+2", "0x1.7e11b9d58c98ep-1", "0x1.930d65390f2fcp+0",
             "-0x1.d77806105bbf5p+0", "-0x1.0a13bf4b3b219p+3", "-0x1.36e8486a42a07p+1",
             "-0x1.7c92b60ffb110p+2"]

    def test_seed_0_set_is_bit_identical(self):
        iso = isotropic_invariants(random_property_tensors(np.random.default_rng(0)))
        assert [v.hex() for v in iso.alpha.tolist()] == self.ALPHA
        assert [v.hex() for v in iso.gprime.tolist()] == self.GPRIME
        assert [v.hex() for v in iso.aquad.tolist()] == self.AQUAD


    def test_stack_of_sets_gives_each_set_its_own_bits(self):
        rng = np.random.default_rng(61)
        sets = [random_property_tensors(rng) for _ in range(50)]
        stack = PropertyTensorSet(
            **{name: np.stack([getattr(ts, name) for ts in sets])
               for name in ("alpha34", "alpha12", "gprime34", "a34")})
        iso = isotropic_invariants(stack)
        assert iso.alpha.shape == (50, 10) and iso.aquad.shape == (50, 10)
        for j, ts in enumerate(sets):
            alone = isotropic_invariants(ts)
            for family in ("alpha", "gprime", "aquad"):
                assert ([v.hex() for v in getattr(iso, family)[j].tolist()]
                        == [v.hex() for v in getattr(alone, family).tolist()])


class TestInvariantDigests:
    """sha256 of the bytes of whole stacks, recorded on the one-pass kernel that
    formed each of the 14 x 3 x 81 products on its own: a change of summation
    order, product order or block seam anywhere in 1000 sets shows up here."""

    ISOTROPIC = {
        1.0: {"alpha": "10a5e7fa60dac744b3478cd873a39ee3643a178bb83a2daf3f5c5f2b997992c6",
              "gprime": "3571acbc5cb233fe06e57cf6fc919caf0b819ba099446cb79c457d2e343d6b59",
              "aquad": "8be070c4dc64783b996fb73892c9e6f2da068d8bede7d57296928ee75196ff19"},
        # every product underflows to a signed zero, and every sum is +0.0
        1e-150: {"alpha": "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
                 "gprime": "884b703a22403761d38fd1806c611868627681eab006dfff2dfbe0a8d980a1d2",
                 "aquad": "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc"},
    }
    # 270 inf and 41730 nan among the (14, 3, 1000) sums
    OVERFLOWING_PATTERN_SUMS = "ecae743f4ede2e1dc501a0a0d312ab71625bfc797e7304c676fca562294d90af"

    @staticmethod
    def digest(values) -> str:
        return hashlib.sha256(values.tobytes()).hexdigest()

    @pytest.mark.parametrize("scale", sorted(ISOTROPIC))
    def test_isotropic_invariants_of_1000_sets(self, scale):
        rng = np.random.default_rng(25)
        sets = [random_property_tensors(rng) for _ in range(1000)]
        stack = PropertyTensorSet(
            **{name: np.stack([getattr(ts, name) for ts in sets]) * scale
               for name in ("alpha34", "alpha12", "gprime34", "a34")})
        iso = isotropic_invariants(stack)
        assert {family: self.digest(getattr(iso, family))
                for family in ("alpha", "gprime", "aquad")} == self.ISOTROPIC[scale]

    def test_overflowing_pattern_sums_of_1000_sets(self):
        rng = np.random.default_rng(25)
        t, a12, a34 = (rng.standard_normal(lead + (1000, 3, 3)) * 1e150
                       for lead in ((3,), (), ()))
        assert self.digest(pattern_sums(t, a12, a34)) == self.OVERFLOWING_PATTERN_SUMS


class TestPatternSums:
    """The explicit summation order against np.einsum, the independent reference,
    bit for bit (sign of zero and NaN bits included) for each of the 14 patterns.
    einsum follows the memory order of transposed or Fortran-ordered operands,
    so the reference is einsum on C-ordered copies: the sums must not depend on
    the layout of their inputs."""

    @staticmethod
    def assert_same_bits(t, a12, a34):
        sums = pattern_sums(t, a12, a34)
        t, a12, a34 = (np.ascontiguousarray(f) for f in (t, a12, a34))
        for p, pattern in enumerate(_RANK2_PATTERNS):
            want = np.einsum(f"{pattern}->...", t, a12, a34, a12).reshape(len(t), -1)
            got = sums[p]
            same = got.view(np.uint64) == want.view(np.uint64)
            if not same.all():
                k, j = np.argwhere(~same)[0]
                pytest.fail(f"{pattern} T{k} set {j}: {float(got[k, j]).hex()} "
                            f"!= einsum {float(want[k, j]).hex()}")

    @staticmethod
    def factors(rng, shape, scale=1.0):
        t, a12, a34 = (rng.standard_normal(lead + (3, 3)) * scale
                       for lead in ((3,) + shape, shape, shape))
        return t, a12, a34

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_stacks(self, rng, size, scale):
        # at 1e-150 the products underflow to signed zeros, at 1e150 they overflow
        self.assert_same_bits(*self.factors(rng, (size,), scale))

    def test_one_set_without_leading_axes(self, rng):
        self.assert_same_bits(*self.factors(rng, ()))

    def test_two_leading_axes(self, rng):
        self.assert_same_bits(*self.factors(rng, (4, 5)))

    def test_strided_transposed_and_fortran_ordered_factors(self, rng):
        t, a12, a34 = self.factors(rng, (2 * _BLOCK + 6,))
        self.assert_same_bits(t[:, ::2], a12[::2], a34[::2])
        self.assert_same_bits(t.swapaxes(-1, -2), a12.swapaxes(-1, -2), a34.swapaxes(-1, -2))
        self.assert_same_bits(*(np.asfortranarray(f) for f in (t, a12, a34)))

    def test_sliced_stack_gives_each_set_its_own_bits(self):
        rng = np.random.default_rng(62)
        sets = [random_property_tensors(rng) for _ in range(2 * _BLOCK + 3)]
        stack = PropertyTensorSet(
            **{name: np.stack([getattr(ts, name) for ts in sets])
               for name in ("alpha34", "alpha12", "gprime34", "a34")})[::2]
        iso = isotropic_invariants(stack)
        for j, ts in enumerate(sets[::2]):
            alone = isotropic_invariants(ts)
            for family in ("alpha", "gprime", "aquad"):
                assert (getattr(iso, family)[j].view(np.uint64)
                        == getattr(alone, family).view(np.uint64)).all()

    def test_products_that_are_all_negative_zero_sum_to_positive_zero(self):
        t = np.full((3, 3, 3), -0.0)
        self.assert_same_bits(t, I3 + 1.0, I3 + 1.0)
        assert not np.signbit(pattern_sums(t, I3 + 1.0, I3 + 1.0)).any()
        iso = invariants_of(gprime34=np.full((3, 3), -0.0))
        assert not np.signbit(iso.gprime).any()

    def test_overflowing_products_raise_without_a_warning(self, rng):
        ts = random_tensor_set(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteResult, match="isotropic invariants"):
                invariants_of(ts.alpha34 * 1e120, ts.alpha12 * 1e120, ts.gprime34, ts.a34)
        assert not caught


def tensor_stack(rng, size):
    sets = [random_property_tensors(rng) for _ in range(size)]
    return PropertyTensorSet(**{name: np.array([getattr(ts, name) for ts in sets])
                                .reshape((size, 3, 3) + (3,) * (name == "a34"))
                                for name in ("alpha34", "alpha12", "gprime34", "a34")})


class TestSharedProductPlan:
    # (T, patterns) of each family, T over (alpha34, G'34, B): written out here,
    # apart from the module's `_INVARIANTS`
    FAMILIES = {"alpha": (0, (0, 1, 2, 3, 5, 6, 7, 8, 12, 13)),
                "gprime": (1, tuple(range(14))), "aquad": (2, tuple(range(4, 14)))}

    def test_plan_unrolls_to_the_pattern_table(self):
        levels, gather = _plan(_INVARIANTS)
        assert [len(product) for product, _ in levels] == [243, 1053, 1629]
        for product, factor in levels:  # each level forms each product once
            assert len(set(zip(product.tolist(), factor.tolist()))) == len(product)
        index, factors = gather, []
        for product, factor in reversed(levels):
            factors.insert(0, factor[index])
            index = product[index]
        want = np.zeros((4, 81, len(_INVARIANTS)), dtype=int)
        pairs = [(t, p) for t, patterns in self.FAMILIES.values() for p in patterns]
        for n, (t, p) in enumerate(pairs):
            subs = _RANK2_PATTERNS[p].replace("...", "").split(",")
            for term, values in enumerate(itertools.product(range(3), repeat=4)):
                label = dict(zip("ijkl", values))
                want[:, term, n] = [3 * label[a] + label[b] for a, b in subs]
                want[0, term, n] += 9 * t
        assert np.array_equal(np.stack([index, *factors]), want)

    def test_plan_is_the_same_with_a_flat_unique_inverse(self, monkeypatch):
        # numpy 1.x returns np.unique's inverse flat, numpy 2 in the input's shape
        unique = np.unique

        def flat_unique(values, **kwargs):
            keys, inverse = unique(values, **kwargs)
            return keys, inverse.ravel()

        want = _plan.__wrapped__(_INVARIANTS)
        monkeypatch.setattr(np, "unique", flat_unique)
        got = _plan.__wrapped__(_INVARIANTS)
        assert all(np.array_equal(g, w) for g, w in
                   zip(itertools.chain(*got[0], got[1:]), itertools.chain(*want[0], want[1:])))
        assert got[1].shape == want[1].shape == (81, len(_INVARIANTS))

    @classmethod
    def assert_families_are_pattern_sums(cls, stack):
        iso = isotropic_invariants(stack)
        t = np.stack((stack.alpha34, stack.gprime34, epsilon_contract(stack.a34)))
        sums = pattern_sums(t, stack.alpha12, stack.alpha34)
        for family, (k, patterns) in cls.FAMILIES.items():
            got = getattr(iso, family)
            assert got.dtype == np.float64 and got.shape == (len(stack.alpha34), len(patterns))
            assert np.array_equal(got.view(np.uint64), sums[list(patterns), k].T.view(np.uint64))

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000])
    def test_each_family_is_its_rows_of_pattern_sums(self, rng, size):
        self.assert_families_are_pattern_sums(tensor_stack(rng, size))

    def test_strided_and_fortran_ordered_stacks(self, rng):
        stack = tensor_stack(rng, 2 * _BLOCK + 6)
        self.assert_families_are_pattern_sums(stack[::2])
        # PropertyTensorSet keeps its fields C-ordered, so these reach the kernel bare
        self.assert_families_are_pattern_sums(types.SimpleNamespace(
            **{name: np.asfortranarray(getattr(stack, name))
               for name in ("alpha34", "alpha12", "gprime34", "a34")}))


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_invariants_raise_one_error(self, rng, scale):
        ts = random_tensor_set(rng)
        with pytest.raises(NonFiniteResult, match="isotropic invariants"):
            invariants_of(ts.alpha34 * scale, ts.alpha12, ts.gprime34, ts.a34)

    def test_finite_invariants_whose_combinations_overflow_raise_one_error(self):
        # coefficient rows sum to more than 1 in magnitude, so invariants
        # near the float maximum can give non-finite naturals and residuals
        big = IsotropicInvariantSet(alpha=np.full(10, 1e308), gprime=np.full(14, 1e308),
                                    aquad=np.full(10, 1e308))
        with pytest.raises(NonFiniteResult, match="natural invariants"):
            natural_from_isotropic(big, 0.1, 0.12)
        with pytest.raises(NonFiniteResult, match="dependence residuals"):
            dependence_report(big)

    @pytest.mark.parametrize("k", [1017, 1019])
    def test_relative_residuals_keep_their_bits_near_the_float_maximum(self, k):
        # scaled by 2^k the invariants are finite (up to about 4e307 and 1.6e308)
        # but sum |coef| |value| is not, which raised where the residual is finite
        iso = isotropic_invariants(random_property_tensors(np.random.default_rng(0)))
        big = IsotropicInvariantSet(*(np.ldexp(v, k) for v in (iso.alpha, iso.gprime,
                                                                iso.aquad)))
        for name, report in dependence_report(iso).items():
            scaled = dependence_report(big)[name]
            assert scaled["residual"] == math.ldexp(report["residual"], k)
            assert scaled["relative"].hex() == report["relative"].hex()


class TestNaturalBits:
    # float.hex for the seed-0 set at omega3 = 0.11, omega4 = 0.115, recorded
    # when every table had its own matrix product: the counterpart of
    # TestInvariantBits for the natural layer, its renditions and residuals
    A = ["0x1.127c082dfd80dp-1", "-0x1.4ffd27542f385p-1", "-0x1.8847aa4c5bbdep-1",
         "0x1.68225f58aaa85p+2", "-0x1.a3f5d7314ef22p+2", "0x1.e4d977f490c48p+2",
         "0x1.2a8d9b49bddf0p-2", "-0x1.d17ea430e4044p+1", "0x1.c76555a14d928p-3"]
    G = ["0x1.eb7cc3ebcfb63p-2", "-0x1.2ccedbd47e3dep-1", "-0x1.ae1b8fd474a65p-2",
         "0x1.8adcb701486f8p+1", "-0x1.77fca9c5ddd6cp+1", "0x1.b214ea435f8f8p+1",
         "-0x1.dc687c5f28090p-3", "0x1.1ee4ed42c90a0p-3", "0x1.390b40f452777p-1",
         "-0x1.3c4c1e3c957c4p+0", "-0x1.c652256a93befp+2", "0x1.7dc328d504719p+2",
         "0x1.806bfd3d0530fp+4"]
    K3 = ["0x0.0p+0", "0x0.0p+0", "0x1.23d69f7371bd8p-6", "-0x1.0bec67988ffbap-3",
          "0x0.0p+0", "0x0.0p+0", "0x1.09b4fc115fdfcp-4", "-0x1.31b59c7f070f9p-1",
          "0x1.6132ab3b7642cp-8", "-0x1.3f569de27147ap-2", "0x1.b9f11fab0c0edp-2",
          "-0x1.955b00dd39b23p-4", "0x1.041c4ae083d96p-1"]
    K4 = ["0x0.0p+0", "0x0.0p+0", "0x1.311a8f6d0e2edp-6", "-0x1.181a0f36c512bp-3",
          "0x0.0p+0", "0x0.0p+0", "0x1.15c8d8fae43b6p-4", "-0x1.3f9af510701bfp-1",
          "0x1.71409bbe2a2e8p-8", "-0x1.4dda8dc9d3851p-2", "0x1.ce07b8615e0f8p-2",
          "-0x1.a7c7ddfe8dc5fp-4", "0x1.0fef08765b4c0p-1"]
    RENDITIONS = ["0x1.c172adf715995p-2", "-0x1.3c322b08d8427p-11", "0x1.2cc1bea878dedp-15"]
    DELTAS = ["-0x1.52ca0925a6746p-10", "-0x1.52733f676ede2p-10"]
    RESIDUALS = ["-0x1.0000000000000p-46", "-0x1.0000000000000p-49", "0x1.0000000000000p-47"]

    def test_seed_0_set_is_bit_identical(self):
        iso = isotropic_invariants(random_property_tensors(np.random.default_rng(0)))
        nat = natural_from_isotropic(iso, 0.11, 0.115)
        for values, want in ((nat.a_values, self.A), (nat.g_values, self.G),
                             (nat.k3_values, self.K3), (nat.k4_values, self.K4)):
            assert [v.hex() for v in values.tolist()] == want
        terms = natural_terms(nat, C_AU)
        renditions = (terms.electric, terms.magnetic, terms.quadrupole)
        assert [v.hex() for v in renditions] == self.RENDITIONS
        assert [delta_eq12(nat, C_AU).hex(), delta_eq13(nat, C_AU).hex()] == self.DELTAS
        report = dependence_report(iso)
        assert [report[name]["residual"].hex()
                for name in ("alpha", "gprime", "aquad")] == self.RESIDUALS


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
