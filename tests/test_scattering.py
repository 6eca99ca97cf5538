import math

import numpy as np
import pytest

from carscid.errors import FrequencyError, SymmetryError
from carscid.invariants import isotropic_invariants
from carscid.scattering import (
    E_X,
    E_Y,
    E_Z,
    BeamSet,
    PhysicalContext,
    PropertyTensorSet,
    lab_components,
    m_squared_general,
    m_squared_vvvl,
    m_squared_vvvr,
    transition_rate,
    vvvr_bracket_terms,
)
from carscid.tensors import haar_random_rotation
from conftest import random_rank3_symlast, random_sym2, random_tensor_set

CTX = PhysicalContext(normalize=True)
BEAMS = BeamSet.collinear_vvv(0.10, 0.095, 0.11)


def random_unit_complex(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / math.sqrt(float(np.real(np.vdot(v, v))))


def random_full_set(rng):
    return PropertyTensorSet(
        alpha34=random_sym2(rng), alpha12=random_sym2(rng),
        gprime34=rng.normal(size=(3, 3)), a34=random_rank3_symlast(rng),
        gprime12=rng.normal(size=(3, 3)), a12=random_rank3_symlast(rng))


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
        assert m_squared_vvvl(ts, BEAMS, CTX) == pytest.approx(0.5, abs=1e-15)

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
        total = m_squared_vvvr(ts, BEAMS, CTX) + m_squared_vvvl(ts, BEAMS, CTX)
        assert total == pytest.approx(2.0 * float(electric), rel=1e-14)

    def test_r_minus_l_is_twice_chiral_terms(self, rng):
        ts = random_tensor_set(rng).rotated(haar_random_rotation(rng))
        _, magnetic, quadrupole = vvvr_bracket_terms(
            *lab_components(ts, E_X, E_Y, E_Z),
            BEAMS.omega[2], BEAMS.omega[3], CTX.c)
        diff = m_squared_vvvr(ts, BEAMS, CTX) - m_squared_vvvl(ts, BEAMS, CTX)
        assert diff == pytest.approx(2.0 * float(magnetic + quadrupole), rel=1e-12)

    def test_requires_collinear_beams(self, rng):
        beams = BeamSet(omega=np.array([0.10, 0.095, 0.11, 0.115]),
                        khat=np.array([[0.0, 0.0, 1.0]] * 3 + [[1.0, 0.0, 0.0]]),
                        pol=np.array([[1, 0, 0]] * 3 + [[0, 0, 1]], dtype=complex),
                        photons=np.ones(4))
        with pytest.raises(ValueError):
            m_squared_vvvr(random_tensor_set(rng), beams, CTX)


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
            assert general_l == pytest.approx(m_squared_vvvl(ts, BEAMS, CTX),
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
        assert transition_rate(3.0, ctx) == pytest.approx(
            2.0 * math.pi * 3.0, rel=1e-15)
        assert transition_rate(0.0, ctx) == 0.0

    def test_normalized_rate_is_identity(self):
        assert transition_rate(0.7, CTX) == 0.7

    def test_photon_number_scaling(self, rng):
        ts = random_tensor_set(rng)
        ctx = PhysicalContext()
        b1 = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(1, 1, 1, 1))
        b2 = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(2, 1, 1, 1))
        assert m_squared_vvvr(ts, b2, ctx) == pytest.approx(
            2.0 * m_squared_vvvr(ts, b1, ctx), rel=1e-14)
