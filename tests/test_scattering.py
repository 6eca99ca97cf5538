import math
import warnings

import numpy as np
import pytest

from carscid.averaging import lab_brackets, so3_quadrature_average
from carscid.errors import FrequencyError, SymmetryError
from carscid.invariants import isotropic_invariants
from carscid.scattering import (
    E_X,
    E_Y,
    E_Z,
    BeamSet,
    PhysicalContext,
    PropertyTensorSet,
    check_collinear,
    lab_components,
    random_property_tensors,
    m_squared_general,
    m_squared_vvvl,
    m_squared_vvvr,
    vvvr_bracket_terms,
)
from carscid.tensors import haar_random_rotation
from conftest import random_rank3_symlast, random_sym2, random_tensor_set

CTX = PhysicalContext(normalize=True)
BEAMS = BeamSet.collinear_vvv(0.10, 0.095, 0.11)
BEAMS_L = BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="L")


def random_unit_complex(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / math.sqrt(float(np.real(np.vdot(v, v))))


def random_full_set(rng):
    return PropertyTensorSet(
        alpha34=random_sym2(rng), alpha12=random_sym2(rng),
        gprime34=rng.normal(size=(3, 3)), a34=random_rank3_symlast(rng),
        gprime12=rng.normal(size=(3, 3)), a12=random_rank3_symlast(rng))


def random_tilted_beams(rng, sets=None):
    """Random unit wavevectors, complex unit polarizations and photon numbers;
    energy-conserving frequencies, one set or (4, `sets`)."""
    shape = () if sets is None else (sets,)
    w1, w3 = rng.uniform(0.05, 0.15, size=(2,) + shape)
    w2 = rng.uniform(0.02, 0.9 * np.minimum(w1, w3))
    khat = rng.normal(size=(4, 3))
    return BeamSet(omega=np.array([w1, w2, w3, w1 - w2 + w3]),
                   khat=khat / np.linalg.norm(khat, axis=1, keepdims=True),
                   pol=np.array([random_unit_complex(rng) for _ in range(4)]),
                   photons=rng.uniform(0.0, 3.0, size=4))


def stacked(sets):
    """One stack of tensor sets; a field the first set lacks stays absent."""
    return PropertyTensorSet(**{
        name: None if getattr(sets[0], name) is None
        else np.stack([getattr(s, name) for s in sets])
        for name in PropertyTensorSet.__dataclass_fields__})


# The nine-bracket evaluator as first written, kept verbatim as the reference:
# one set, Python complex scalars, each of the eight chiral brackets spelled
# out beam by beam against the shared conjugated amplitude m_bar.

def _quad_contract(aq: np.ndarray, u, v, w) -> complex:
    """C(A; u, v, w) = u_a v_b w_c A_abc with complex vectors."""
    return complex(np.einsum("a,b,c,abc->", u, v, w, aq))


_IMAG_RESIDUE_TOL = 1e-14


def reference_m_squared_general(tensors: PropertyTensorSet, beams: BeamSet,
                                ctx: PhysicalContext) -> float:
    """Full |M|^2 for arbitrary beams: electric term plus eight chiral brackets.

    Missing pump/Stokes optical-activity tensors are treated as zero with a
    warning.  The result is real by construction; a nonzero imaginary residue
    beyond 1e-14 relative indicates a broken input and raises.
    """
    e1, e2, e3, e4 = beams.pol
    kh = beams.khat
    k = beams.wavenumbers(ctx.c)
    c = ctx.c

    a34 = tensors.alpha34
    a12 = tensors.alpha12
    g34 = tensors.gprime34
    aq34 = tensors.a34
    if tensors.gprime12 is None or tensors.a12 is None:
        warnings.warn("pump/Stokes optical-activity tensors missing; treated as zero",
                      stacklevel=2)
    g12 = tensors.gprime12 if tensors.gprime12 is not None else np.zeros((3, 3))
    aq12 = tensors.a12 if tensors.a12 is not None else np.zeros((3, 3, 3))

    def bil(u, t, v) -> complex:
        return complex(u @ t @ v)

    # shared conjugated amplitude: conj(e4).alpha34.e3 * conj(e2).alpha12.e1
    m_bar = bil(e4.conj(), a34, e3) * bil(e2.conj(), a12, e1)

    s34 = bil(e4, a34, e3.conj())       # e4.alpha34.conj(e3)
    s12 = bil(e2, a12, e1.conj())       # e2.alpha12.conj(e1)

    electric = s34 * s12 * m_bar
    value = electric.real
    if abs(electric.imag) > _IMAG_RESIDUE_TOL * max(1.0, abs(electric.real)):
        raise ValueError(f"electric bracket has imaginary residue {electric.imag!r}")

    # magnetic-dipole brackets, one per beam, each with the beam's own
    # polarization replaced by (khat x pol) on the primed tensor
    x_pump = s34 * bil(e2, g12, np.cross(kh[0], e1.conj()))
    x_stokes = s34 * bil(e1.conj(), g12, np.cross(kh[1], e2))
    x_probe = bil(e4, g34, np.cross(kh[2], e3.conj())) * s12
    x_anti = bil(e3.conj(), g34, np.cross(kh[3], e4)) * s12
    value += (2.0 / c) * (-(x_pump * m_bar).imag + (x_stokes * m_bar).imag
                          - (x_probe * m_bar).imag + (x_anti * m_bar).imag)

    # electric-quadrupole brackets, scaled by the full wavevector k_j
    x_q1 = s34 * k[0] * _quad_contract(aq12, e2, e1.conj(), kh[0])
    x_q2 = s34 * k[1] * _quad_contract(aq12, e1.conj(), e2, kh[1])
    x_q3 = k[2] * _quad_contract(aq34, e4, e3.conj(), kh[2]) * s12
    x_q4 = k[3] * _quad_contract(aq34, e3.conj(), e4, kh[3]) * s12
    value += (2.0 / 3.0) * ((x_q1 * m_bar).imag - (x_q2 * m_bar).imag
                            + (x_q3 * m_bar).imag - (x_q4 * m_bar).imag)

    return ctx.m2_prefactor(beams) * value


class TestBeamSet:
    def test_energy_conservation(self):
        with pytest.raises(ValueError):
            BeamSet.collinear_vvv(0.10, 0.095, 0.11, omega4=0.2)

    def test_energy_conservation_message_has_plain_floats(self):
        with pytest.raises(ValueError) as info:
            BeamSet.collinear_vvv(0.10, 0.095, 0.11, omega4=0.2)
        assert str(info.value) == ("BeamSet: omega4=0.2 violates "
                                   "omega1-omega2+omega3=0.115")

    def test_collinear_vvv_derives_omega4(self):
        beams = BeamSet.collinear_vvv(0.1, 0.09, 0.11)
        assert beams.omega[3] == pytest.approx(0.12, abs=1e-15)

    def test_sets_of_a_grid_match_their_single_sets(self):
        omega2 = np.array([0.095, 0.09, 0.085])
        photons = (2.0, 1.0, 3.0, 1.0)
        beams = BeamSet.collinear_vvv(*np.broadcast_arrays(0.10, omega2, 0.11),
                                      photons=photons)
        ctx = PhysicalContext()
        for j, w2 in enumerate(omega2.tolist()):
            alone = BeamSet.collinear_vvv(0.10, w2, 0.11, photons=photons)
            assert np.array_equal(beams.omega[:, j], alone.omega)
            assert ctx.m2_prefactor(beams)[j] == ctx.m2_prefactor(alone)
        # set 1 is the first with a bad frequency: omega4 = 0.10 - 0.22 + 0.11 < 0
        with pytest.raises(FrequencyError, match=r"^BeamSet.omega\[3\] = -0\.0099"):
            BeamSet.collinear_vvv(*np.broadcast_arrays(0.10, np.array([0.095, 0.22, 0.3]),
                                                       0.11))

    def test_omega_needs_four_frequencies(self):
        with pytest.raises(ValueError, match=r"^BeamSet.omega: four angular frequencies required$"):
            BeamSet(omega=np.array([0.1, 0.09, 0.1]), khat=BEAMS.khat, pol=BEAMS.pol,
                    photons=np.ones(4))

    def test_polarization_norms_validated(self):
        with pytest.raises(ValueError):
            BeamSet(omega=np.array([0.1, 0.09, 0.1, 0.11]),
                    khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                    pol=np.array([[2.0, 0, 0]] * 4, dtype=complex),
                    photons=np.ones(4))

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.1])
    def test_frequencies_positive_and_finite(self, slot, bad):
        omega = np.array([0.1, 0.09, 0.1, 0.11])
        omega[slot] = bad
        with pytest.raises(FrequencyError, match=rf"BeamSet.omega\[{slot}\]"):
            BeamSet(omega=omega, khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                    pol=np.array([[1.0, 0, 0]] * 4, dtype=complex),
                    photons=np.ones(4))
        assert issubclass(FrequencyError, ValueError)

    @pytest.mark.parametrize("field", ["khat", "pol"])
    @pytest.mark.parametrize("case,pattern", [
        ("norm", r"\[2\]: squared norm"), ("nan", r"\[1\]: entries must be finite"),
        ("shape", r"\[0\.\.3\]: expected four 3-vectors")],
        ids=["norm", "nan", "shape"])
    def test_unit_rows_validated(self, field, case, pattern):
        rows = {"khat": np.tile([0.0, 0.0, 1.0], (4, 1)),
                "pol": np.array([[1.0, 0, 0]] * 4, dtype=complex)}
        if case == "norm":
            rows[field][2] *= 1.5
        elif case == "nan":
            rows[field][1, 0] = math.nan
        else:
            rows[field] = rows[field][:3]  # three beams
        with pytest.raises(ValueError, match=rf"^{field}{pattern}"):
            BeamSet(omega=np.array([0.1, 0.09, 0.1, 0.11]), photons=np.ones(4), **rows)

    def test_analyzer_selection(self):
        r = BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="R")
        l = BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="L")
        assert np.allclose(r.pol[3].conj(), l.pol[3])
        with pytest.raises(ValueError):
            BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="X")


class TestPropertyTensorSet:
    def test_alpha_symmetry_enforced(self, rng):
        bad = rng.normal(size=(3, 3))
        with pytest.raises(SymmetryError):
            PropertyTensorSet(alpha34=bad, alpha12=np.eye(3),
                              gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3)))

    def test_tensors_of_one_set_share_one_stack_shape(self):
        one = dict(alpha34=np.eye(3), alpha12=np.eye(3), gprime34=np.zeros((3, 3)),
                   a34=np.zeros((3, 3, 3)))
        stacked = PropertyTensorSet(**{k: np.stack([v, v]) for k, v in one.items()})
        assert stacked.a34.shape == (2, 3, 3, 3)
        empty = PropertyTensorSet(**{k: np.zeros((0,) + v.shape) for k, v in one.items()})
        assert empty.a34.shape == (0, 3, 3, 3) and empty.invariants.gprime.shape == (0, 14)
        with pytest.raises(ValueError, match=r"^gprime34: stack shape \(3,\) differs "
                                             r"from alpha34's \(\)$"):
            PropertyTensorSet(**{**one, "gprime34": np.zeros((3, 3, 3))})
        with pytest.raises(ValueError, match=r"^a12: stack shape \(\) differs"):
            PropertyTensorSet(**{k: np.stack([v, v]) for k, v in one.items()},
                              a12=np.zeros((3, 3, 3)))

    def test_enantiomer_map(self, rng):
        ts = random_tensor_set(rng)
        mirror = ts.enantiomer()
        assert np.array_equal(mirror.alpha34, ts.alpha34)
        assert np.array_equal(mirror.gprime34, -ts.gprime34)
        assert np.array_equal(mirror.a34, -ts.a34)

    def test_a_row_is_a_view_and_a_strided_index_a_read_only_c_ordered_copy(self, rng):
        sets = [random_tensor_set(rng) for _ in range(4)]
        stack = PropertyTensorSet(**{name: np.stack([getattr(t, name) for t in sets])
                                     for name in ("alpha34", "alpha12", "gprime34", "a34")})
        for name in ("alpha34", "a34"):
            assert np.shares_memory(getattr(stack[1], name), getattr(stack, name))
            assert np.shares_memory(getattr(stack[1:3], name), getattr(stack, name))
        strided = stack[::2]
        assert strided.gprime12 is None and strided.a12 is None
        for name in ("alpha34", "alpha12", "gprime34", "a34"):
            value = getattr(strided, name)
            assert not np.shares_memory(value, getattr(stack, name))
            assert value.flags.c_contiguous and not value.flags.writeable
            assert value.tobytes() == getattr(stack, name)[::2].tobytes()

    def test_invariants_computed_once_and_exact(self, rng):
        ts = random_tensor_set(rng)
        assert ts.invariants is ts.invariants
        fresh = isotropic_invariants(ts)
        for name in ("alpha", "gprime", "aquad"):
            assert np.array_equal(getattr(ts.invariants, name), getattr(fresh, name))


class TestCollinearEvaluators:
    def test_isotropic_electric_only(self):
        ts = PropertyTensorSet(alpha34=np.eye(3), alpha12=np.eye(3),
                               gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3)))
        assert m_squared_vvvr(ts, BEAMS, CTX) == pytest.approx(0.5, abs=1e-15)
        assert m_squared_vvvl(ts, BEAMS_L, CTX) == pytest.approx(0.5, abs=1e-15)

    def test_unit_axes_give_the_tensor_entries_exactly(self, rng):
        ts = random_tensor_set(rng)
        want = (ts.alpha34[0, 0], ts.alpha34[1, 0], ts.alpha12[0, 0],
                ts.gprime34[0, 0] + ts.gprime34[1, 1],
                ts.a34[1, 0, 2], ts.a34[0, 1, 2], ts.a34[0, 0, 2])
        got = lab_components(ts, E_X, E_Y, E_Z)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_r_plus_l_is_twice_electric(self, rng):
        ts = random_tensor_set(rng)
        electric, _, _ = vvvr_bracket_terms(*lab_components(ts, E_X, E_Y, E_Z),
                                            BEAMS.omega[2], BEAMS.omega[3], CTX.c)
        total = m_squared_vvvr(ts, BEAMS, CTX) + m_squared_vvvl(ts, BEAMS_L, CTX)
        assert total == pytest.approx(2.0 * float(electric), rel=1e-14)

    def test_r_minus_l_is_twice_chiral_terms(self, rng):
        ts = random_tensor_set(rng).rotated(haar_random_rotation(rng))
        _, magnetic, quadrupole = vvvr_bracket_terms(
            *lab_components(ts, E_X, E_Y, E_Z),
            BEAMS.omega[2], BEAMS.omega[3], CTX.c)
        diff = m_squared_vvvr(ts, BEAMS, CTX) - m_squared_vvvl(ts, BEAMS_L, CTX)
        assert diff == pytest.approx(2.0 * float(magnetic + quadrupole), rel=1e-12)

    def test_a_stack_of_beam_sets_gives_one_value_per_set(self, rng):
        # once numpy's TypeError from float() on the stack
        ts = random_full_set(rng)
        ctx = PhysicalContext()
        omega2 = np.array([0.095, 0.096])
        for analyzer, evaluate in (("R", m_squared_vvvr), ("L", m_squared_vvvl)):
            beams = BeamSet.collinear_vvv(*np.broadcast_arrays(0.10, omega2, 0.11),
                                          analyzer=analyzer)
            stack = evaluate(ts, beams, ctx)
            assert stack.shape == (2,)
            for j, w2 in enumerate(omega2.tolist()):
                alone = evaluate(ts, BeamSet.collinear_vvv(0.10, w2, 0.11, analyzer=analyzer),
                                 ctx)
                assert type(alone) is float and stack[j] == alone
            np.testing.assert_allclose(stack, m_squared_general(ts, beams, ctx), rtol=1e-12)

    def test_a_stack_of_tensor_sets_gives_one_value_per_set(self, rng):
        # once numpy's ValueError from reshaping a34 of two sets to (9, 3)
        sets = [random_tensor_set(rng) for _ in range(2)]
        ts = PropertyTensorSet(**{name: np.stack([getattr(s, name) for s in sets])
                                  for name in ("alpha34", "alpha12", "gprime34", "a34")})
        ctx = PhysicalContext()
        omega2 = np.array([0.095, 0.096])
        for analyzer, evaluate in (("R", m_squared_vvvr), ("L", m_squared_vvvl)):
            one = BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer=analyzer)
            many = BeamSet.collinear_vvv(*np.broadcast_arrays(0.10, omega2, 0.11),
                                         analyzer=analyzer)
            for beams, per_set in ((one, [one] * 2),
                                   (many, [BeamSet.collinear_vvv(0.10, w2, 0.11,
                                                                 analyzer=analyzer)
                                           for w2 in omega2.tolist()])):
                stack = evaluate(ts, beams, ctx)
                assert stack.shape == (2,)
                for j, (s, b) in enumerate(zip(sets, per_set)):
                    assert stack[j].tobytes() == np.float64(evaluate(s, b, ctx)).tobytes()

    def test_requires_collinear_beams(self, rng):
        beams = BeamSet(omega=np.array([0.10, 0.095, 0.11, 0.115]),
                        khat=np.array([[0.0, 0.0, 1.0]] * 3 + [[1.0, 0.0, 0.0]]),
                        pol=np.array([[1, 0, 0]] * 3 + [[0, 0, 1]], dtype=complex),
                        photons=np.ones(4))
        with pytest.raises(ValueError):
            m_squared_vvvr(random_tensor_set(rng), beams, CTX)

    def test_analyzer_must_match_the_evaluator(self):
        # once answered with the R value; m_squared_general gives the L one
        ts = random_property_tensors(np.random.default_rng(1))
        with pytest.warns(UserWarning, match="pump/Stokes"):
            assert m_squared_general(ts, BEAMS_L, CTX) == pytest.approx(0.0075609, abs=1e-7)
        with pytest.raises(ValueError, match=r"^pol\[3\]: the collinear evaluator needs "
                                             r"POL_RIGHT within 1e-12$"):
            m_squared_vvvr(ts, BEAMS_L, CTX)
        with pytest.raises(ValueError, match=r"^pol\[3\]: the collinear evaluator needs "
                                             r"POL_LEFT within 1e-12$"):
            m_squared_vvvl(ts, BEAMS, CTX)

    def test_the_geometry_check_takes_either_analyzer(self):
        check_collinear(BEAMS)
        check_collinear(BEAMS_L)
        beams = BeamSet(omega=BEAMS.omega, khat=BEAMS.khat,
                        pol=np.array([E_X, E_X, E_X, E_Y]), photons=np.ones(4))
        with pytest.raises(ValueError, match=r"^pol\[3\]: the collinear evaluator needs "
                                             r"POL_RIGHT or POL_LEFT within 1e-12$"):
            check_collinear(beams)

    def test_inputs_must_be_x_polarized(self):
        # y-polarized inputs along z were once answered with the x-polarized value
        ts = random_property_tensors(np.random.default_rng(1))
        beams = BeamSet(omega=BEAMS.omega, khat=BEAMS.khat,
                        pol=np.array([E_Y, E_Y, E_Y, BEAMS.pol[3]]), photons=np.ones(4))
        with pytest.warns(UserWarning, match="pump/Stokes"):
            assert m_squared_general(ts, beams, CTX) == pytest.approx(0.0117365, abs=1e-7)
        with pytest.raises(ValueError, match=r"^pol\[0\]: .* needs E_X"):
            m_squared_vvvr(ts, beams, CTX)


class TestGeneralEvaluator:
    def test_matches_collinear_specialization(self, rng):
        # 50 random tensor sets and orientations, both analyzers, 1e-12
        for _ in range(50):
            ts = random_full_set(rng).rotated(haar_random_rotation(rng))
            general_r = m_squared_general(ts, BEAMS, CTX)
            general_l = m_squared_general(
                ts, BeamSet.collinear_vvv(*BEAMS.omega[:3], analyzer="L"), CTX)
            assert general_r == pytest.approx(m_squared_vvvr(ts, BEAMS, CTX),
                                              rel=1e-12, abs=1e-15)
            assert general_l == pytest.approx(m_squared_vvvl(ts, BEAMS_L, CTX),
                                              rel=1e-12, abs=1e-15)

    def test_real_polarizations_blind_to_chirality(self, rng):
        # four random real polarizations: the result must not move when the
        # optical-activity tensors are replaced by arbitrary ones
        def unit(v):
            return v / np.linalg.norm(v)

        pol = np.array([unit(rng.normal(size=3)) for _ in range(4)], dtype=complex)
        beams = BeamSet(omega=BEAMS.omega, khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                        pol=pol, photons=np.ones(4))
        a34, a12 = random_sym2(rng), random_sym2(rng)
        base = PropertyTensorSet(alpha34=a34, alpha12=a12,
                                 gprime34=rng.normal(size=(3, 3)),
                                 a34=random_rank3_symlast(rng),
                                 gprime12=rng.normal(size=(3, 3)),
                                 a12=random_rank3_symlast(rng))
        swapped = PropertyTensorSet(alpha34=a34, alpha12=a12,
                                    gprime34=rng.normal(size=(3, 3)),
                                    a34=random_rank3_symlast(rng),
                                    gprime12=rng.normal(size=(3, 3)),
                                    a12=random_rank3_symlast(rng))
        v1 = m_squared_general(base, beams, CTX)
        v2 = m_squared_general(swapped, beams, CTX)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_zero_tensors_give_zero(self):
        zero = PropertyTensorSet(alpha34=np.zeros((3, 3)), alpha12=np.zeros((3, 3)),
                                 gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3)),
                                 gprime12=np.zeros((3, 3)), a12=np.zeros((3, 3, 3)))
        assert m_squared_general(zero, BEAMS, CTX) == 0.0

    def test_phase_invariance(self, rng):
        ts = random_full_set(rng)
        pol = np.array([random_unit_complex(rng) for _ in range(4)])
        beams = BeamSet(omega=BEAMS.omega, khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                        pol=pol, photons=np.ones(4))
        base = m_squared_general(ts, beams, CTX)
        for j in range(4):
            shifted = pol.copy()
            shifted[j] = np.exp(1j * rng.uniform(0, 2 * math.pi)) * shifted[j]
            beams_j = BeamSet(omega=BEAMS.omega,
                              khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                              pol=shifted, photons=np.ones(4))
            assert m_squared_general(ts, beams_j, CTX) == pytest.approx(
                base, rel=1e-12)

    def test_missing_pump_stokes_tensors_warn_and_act_as_zero(self, rng):
        ts = random_tensor_set(rng)
        explicit = PropertyTensorSet(alpha34=ts.alpha34, alpha12=ts.alpha12,
                                     gprime34=ts.gprime34, a34=ts.a34,
                                     gprime12=np.zeros((3, 3)),
                                     a12=np.zeros((3, 3, 3)))
        pol = np.array([random_unit_complex(rng) for _ in range(4)])
        beams = BeamSet(omega=BEAMS.omega, khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                        pol=pol, photons=np.ones(4))
        with pytest.warns(UserWarning):
            lazy = m_squared_general(ts, beams, CTX)
        assert lazy == pytest.approx(m_squared_general(explicit, beams, CTX),
                                     rel=1e-14)


class TestGeneralEvaluatorPairs:
    """The evaluator as one pass over the two frequency pairs, on stacks."""

    def test_matches_the_beam_by_beam_reference(self):
        # 1000 random tilted geometries with complex polarizations, both
        # prefactor settings, 1e-12 relative
        rng = np.random.default_rng(2601)
        worst = 0.0
        for _ in range(1000):
            ts, beams = random_full_set(rng), random_tilted_beams(rng)
            for ctx in (PhysicalContext(), CTX):
                want = reference_m_squared_general(ts, beams, ctx)
                got = m_squared_general(ts, beams, ctx)
                assert type(got) is float
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-12

    def test_a_stack_gives_one_value_per_set(self):
        rng = np.random.default_rng(2602)
        sets = [random_full_set(rng) for _ in range(5)]
        ctx = PhysicalContext()
        one = random_tilted_beams(rng)
        many = random_tilted_beams(rng, sets=5)
        for beams, per_set in (
                (one, [one] * 5),
                (many, [BeamSet(omega=many.omega[:, j], khat=many.khat, pol=many.pol,
                                photons=many.photons) for j in range(5)])):
            stack = m_squared_general(stacked(sets), beams, ctx)
            assert stack.shape == (5,)
            for j, (s, b) in enumerate(zip(sets, per_set)):
                alone = m_squared_general(s, b, ctx)
                assert type(alone) is float
                assert stack[j] == pytest.approx(alone, rel=1e-14, abs=0.0)

    def test_a_stack_of_rotated_sets(self, rng):
        # once numpy's TypeError: only 0-dimensional arrays can be converted
        # to Python scalars
        ts = random_full_set(rng)
        rotations = np.stack([haar_random_rotation(rng) for _ in range(2)])
        beams = random_tilted_beams(rng)
        stack = m_squared_general(ts.rotated(rotations), beams, CTX)
        assert stack.shape == (2,)
        for value, rotation in zip(stack, rotations):
            assert value == pytest.approx(
                reference_m_squared_general(ts.rotated(rotation), beams, CTX), rel=1e-12)

    def test_missing_pump_stokes_tensors_warn_once_per_stack(self, rng):
        ts = stacked([random_tensor_set(rng) for _ in range(3)])
        beams = random_tilted_beams(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = m_squared_general(ts, beams, CTX)
        assert [str(w.message) for w in caught] == [
            "pump/Stokes optical-activity tensors missing; treated as zero"]
        assert stack.shape == (3,)


class TestGeneralEvaluatorAverage:
    """Orientational averages by composing the evaluator with the SO(3) quadrature."""

    def test_collinear_average_equals_the_lab_bracket_average(self):
        # omega4 = 0.12 differs from omega3 = 0.10, so both quadrupole
        # wavenumbers enter
        rng = np.random.default_rng(2603)
        beams = BeamSet.collinear_vvv(0.10, 0.08, 0.10)
        for _ in range(5):
            ts = random_full_set(rng)
            got = so3_quadrature_average(
                lambda r: m_squared_general(ts.rotated(r), beams, CTX)).value
            brackets = lab_brackets(ts, 0.10, beams.omega[3], CTX.c)
            want = so3_quadrature_average(lambda r: brackets(r)[:3].sum(axis=0)).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_tilted_average_converges_and_ignores_a_common_beam_rotation(self):
        # the Haar average is invariant when every beam vector is turned by one
        # rotation Q; the quadrature rule integrates the degree-9 integrand exactly
        rng = np.random.default_rng(2604)
        ts, beams = random_full_set(rng), random_tilted_beams(rng)
        q = haar_random_rotation(rng)
        turned = BeamSet(omega=beams.omega, khat=beams.khat @ q.T, pol=beams.pol @ q.T,
                         photons=beams.photons)
        results = [so3_quadrature_average(lambda r, b=b: m_squared_general(ts.rotated(r), b,
                                                                           CTX))
                   for b in (beams, turned)]
        assert all(result.converged for result in results)
        assert results[1].value == pytest.approx(results[0].value, rel=1e-12)


class TestPrefactorsAndRate:
    @pytest.mark.parametrize("field", ["hbar", "c", "eps0", "volume", "rho_s", "rho_f"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_context_fields_positive_and_finite(self, field, bad):
        # c is the one settable constant; hbar, eps0, V, rho_s and rho_f are fixed
        # atomic-unit values, so the context refuses them whatever their value
        if field == "c":
            with pytest.raises(ValueError, match=r"PhysicalContext\.c "):
                PhysicalContext(c=bad)
        else:
            with pytest.raises(TypeError, match=rf"'{field}'"):
                PhysicalContext(**{field: bad})

    def test_normalized_prefactors_are_unity(self):
        assert CTX.m2_prefactor(BEAMS) == 1.0
        assert CTX.rate_prefactor() == 1.0

    def test_rate_is_linear(self):
        ctx = PhysicalContext()
        assert ctx.rate_prefactor() * 3.0 == pytest.approx(
            2.0 * math.pi * 3.0, rel=1e-15)
        assert ctx.rate_prefactor() * 0.0 == 0.0

    def test_normalized_rate_is_identity(self):
        assert CTX.rate_prefactor() * 0.7 == 0.7

    def test_photon_number_scaling(self, rng):
        ts = random_tensor_set(rng)
        ctx = PhysicalContext()
        b1 = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(1, 1, 1, 1))
        b2 = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(2, 1, 1, 1))
        assert m_squared_vvvr(ts, b2, ctx) == pytest.approx(
            2.0 * m_squared_vvvr(ts, b1, ctx), rel=1e-14)
