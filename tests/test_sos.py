import numpy as np
import pytest

from carscid.errors import MissingMomentError, ResonanceError, RoleError
from carscid.scattering import BeamSet
from carscid.sos import (
    MolecularModel,
    MomentTable,
    Roles,
    build_property_tensors,
    sum_over_states,
)
from conftest import manifold_consistent_model

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def single_intermediate_model(mu_both=X, m_both=None, q_both=None, gap=2.0):
    """Levels f, s and one intermediate t with E_t - E_s = gap; the given
    moments are stored on both pairs (f,t) and (t,s)."""
    energies = {"g": 0.0, "s": 0.0, "f": 0.0, "t": gap}
    mu = MomentTable("electric-dipole", (3,), +1)
    m_imag = MomentTable("magnetic-dipole", (3,), -1)
    quad = MomentTable("electric-quadrupole", (3, 3), +1)
    mu.set("f", "t", mu_both)
    mu.set("t", "s", mu_both)
    if m_both is not None:
        m_imag.set("f", "t", m_both)
        m_imag.set("t", "s", m_both)
    if q_both is not None:
        quad.set("f", "t", q_both)
        quad.set("t", "s", q_both)
    roles = Roles(ground="g", excited="s", final="f",
                  pump_intermediates=(), probe_intermediates=("t",))
    return MolecularModel(energies=energies, mu=mu, m_imag=m_imag,
                          quadrupole=quad, roles=roles)


class TestMomentTable:
    def test_hermitian_completion_signs(self):
        mu = MomentTable("electric-dipole", (3,), +1)
        mu.set("a", "b", X)
        assert np.array_equal(mu.get("b", "a"), X)
        m = MomentTable("magnetic-dipole", (3,), -1)
        m.set("a", "b", Y)
        assert np.array_equal(m.get("b", "a"), -Y)

    def test_inconsistent_double_storage_rejected(self):
        m = MomentTable("magnetic-dipole", (3,), -1)
        m.set("a", "b", Y)
        with pytest.raises(ValueError):
            m.set("b", "a", Y)  # must be -Y
        m.set("b", "a", -Y)  # consistent restatement is fine

    def test_diagonal_entry_is_its_own_mirror(self):
        # parity -1 forces a diagonal entry to 0, as storing (a, b) then (b, a) would
        m = MomentTable("magnetic-dipole", (3,), -1)
        with pytest.raises(ValueError, match=r"\(a, a\) .* inconsistent values"):
            m.set("a", "a", [0.5, 0, 0])
        m.set("a", "a", [0.0, 0, 0])
        mu = MomentTable("electric-dipole", (3,), +1)
        mu.set("a", "a", [0.5, 0, 0])  # a permanent dipole
        assert np.array_equal(mu.get("a", "a"), [0.5, 0, 0])

    def test_value_shape_and_finiteness_checked(self):
        mu = MomentTable("electric-dipole", (3,), +1)
        with pytest.raises(ValueError, match=r"^electric-dipole moment for pair \(a, b\): "
                                             r"expected shape \(3,\), got \(2,\)$"):
            mu.set("a", "b", [1.0, 0.0])
        with pytest.raises(ValueError, match=r"^electric-dipole moment for pair \(a, b\) "
                                             r"must be finite$"):
            mu.set("a", "b", [1.0, np.nan, 0.0])

    def test_missing_entry_raises(self):
        mu = MomentTable("electric-dipole", (3,), +1)
        with pytest.raises(MissingMomentError):
            mu.get("a", "b")

    def test_energies_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^level 't' has non-finite energy$"):
            single_intermediate_model(gap=np.inf)

    def test_role_validation(self):
        with pytest.raises(RoleError):
            MolecularModel(
                energies={"g": 0.0},
                mu=MomentTable("electric-dipole", (3,), +1),
                m_imag=MomentTable("magnetic-dipole", (3,), -1),
                quadrupole=MomentTable("electric-quadrupole", (3, 3), +1),
                roles=Roles(ground="g", excited="s", final="g",
                            pump_intermediates=(), probe_intermediates=()))


class TestPolarizability:
    def test_single_intermediate_value(self):
        model = single_intermediate_model()
        [(alpha, defect)] = sum_over_states(model, "f", "s", ("t",), 1.0, 1.0, [model.mu])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0 / (2.0 - 1.0) + 1.0 / (2.0 + 1.0)
        assert np.allclose(alpha, expected, atol=1e-15)
        assert defect == 0.0

    def test_no_intermediates_gives_zero(self):
        model = single_intermediate_model()
        [(alpha, defect)] = sum_over_states(model, "f", "s", (), 1.0, 1.0, [model.mu])
        assert np.array_equal(alpha, np.zeros((3, 3)))
        assert defect == 0.0

    def test_resonance_guard(self):
        model = single_intermediate_model(gap=2.0)
        with pytest.raises(ResonanceError):
            sum_over_states(model, "f", "s", ("t",), 2.0, 1.0, [model.mu])

    def test_quadratic_in_moment_scale(self):
        lam = 1.7
        m1 = single_intermediate_model(mu_both=X)
        m2 = single_intermediate_model(mu_both=lam * X)
        [(a1, _)] = sum_over_states(m1, "f", "s", ("t",), 1.0, 1.0, [m1.mu])
        [(a2, _)] = sum_over_states(m2, "f", "s", ("t",), 1.0, 1.0, [m2.mu])
        assert np.allclose(a2, lam ** 2 * a1, rtol=1e-14)

    def test_no_poles_off_resonance(self):
        model = single_intermediate_model()
        values = [sum_over_states(model, "f", "s", ("t",), w, w, [model.mu])[0][0][0, 0]
                  for w in np.linspace(0.1, 1.9, 40)]
        diffs = np.abs(np.diff(values))
        assert np.all(np.isfinite(values))
        assert diffs.max() < 10.0  # smooth away from the pole at gap=2

    def test_opposite_frequencies_reduce_to_single_denominator(self):
        # omega_a = -omega_b collapses both denominators onto E + omega_b
        model = single_intermediate_model()
        w = 0.3
        [(alpha, _)] = sum_over_states(model, "f", "s", ("t",), -w, w, [model.mu])
        assert alpha[0, 0] == pytest.approx(2.0 / (2.0 + w), rel=1e-14)


class TestGyration:
    def test_single_intermediate_value_and_defect(self):
        model = single_intermediate_model(mu_both=X, m_both=Y)
        [(g, defect)] = sum_over_states(model, "f", "s", ("t",), 1.0, 1.0, [model.m_imag])
        expected = np.zeros((3, 3))
        expected[0, 1] = -(1.0 / (2.0 - 1.0) + 1.0 / (2.0 + 1.0))
        assert np.allclose(g, expected, atol=1e-15)
        # this minimal fixture is not route-consistent; the defect must say so
        assert defect > 0.1

    def test_no_magnetic_moments_gives_zero(self):
        model = single_intermediate_model(mu_both=X, m_both=np.zeros(3))
        [(g, defect)] = sum_over_states(model, "f", "s", ("t",), 1.0, 1.0, [model.m_imag])
        assert np.array_equal(g, np.zeros((3, 3)))
        assert defect == 0.0

    def test_routes_agree_for_consistent_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = manifold_consistent_model(rng)
            r = model.roles
            [(_, defect)] = sum_over_states(model, r.final, r.excited,
                                            r.probe_intermediates, 0.3, 0.35, [model.m_imag])
            assert defect <= 1e-12


class TestQuadrupoleActivity:
    def test_single_intermediate_value(self):
        model = single_intermediate_model(mu_both=X, q_both=np.eye(3))
        [(a, defect)] = sum_over_states(model, "f", "s", ("t",), 1.0, 1.0,
                                        [model.quadrupole])
        expected = np.zeros((3, 3, 3))
        expected[0] = (4.0 / 3.0) * np.eye(3)
        assert np.allclose(a, expected, atol=1e-15)
        assert defect <= 1e-15  # identical moments on both pairs: routes equal

    def test_zero_quadrupole_moments(self):
        model = single_intermediate_model(mu_both=X, q_both=np.zeros((3, 3)))
        [(a, _)] = sum_over_states(model, "f", "s", ("t",), 1.0, 1.0, [model.quadrupole])
        assert np.array_equal(a, np.zeros((3, 3, 3)))

    def test_last_two_indices_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            model = manifold_consistent_model(rng)
            r = model.roles
            [(a, defect)] = sum_over_states(model, r.final, r.excited, r.probe_intermediates,
                                            0.3, 0.35, [model.quadrupole])
            assert np.array_equal(a, np.swapaxes(a, 1, 2))
            assert defect <= 1e-12


class TestBuildPropertyTensors:
    def test_full_set_from_consistent_model(self):
        rng = np.random.default_rng(31)
        model = manifold_consistent_model(rng)
        beams = BeamSet.collinear_vvv(0.30, 0.28, 0.33)
        ts = build_property_tensors(model, beams)
        assert np.allclose(ts.alpha34, ts.alpha34.T, atol=0.0)
        assert ts.gprime12 is None and ts.a12 is None

    def test_alpha_symmetric_for_consistent_model(self):
        rng = np.random.default_rng(37)
        model = manifold_consistent_model(rng)
        r = model.roles
        [(alpha, defect)] = sum_over_states(model, r.final, r.excited,
                                            r.probe_intermediates, 0.3, 0.35, [model.mu])
        assert defect <= 1e-12

    def test_one_pass_per_pair_matches_single_tensor_builds(self):
        # one set, then (4, G) grids of them; an empty grid flows through as well
        rng = np.random.default_rng(47)
        model = manifold_consistent_model(rng)
        r = model.roles
        for points in (None, 0, 1, 5):
            omega2 = 0.28 if points is None else np.linspace(0.27, 0.29, points)
            beams = BeamSet.collinear_vvv(*np.broadcast_arrays(0.30, omega2, 0.33))
            ts = build_property_tensors(model, beams)
            omega1, omega2, omega3, omega4 = beams.omega
            probe = (model, r.final, r.excited, r.probe_intermediates, omega3, omega4)
            [(a, _)] = sum_over_states(*probe, [model.mu])
            assert np.array_equal(ts.alpha34, 0.5 * (a + np.swapaxes(a, -1, -2)))
            assert np.array_equal(ts.gprime34, sum_over_states(*probe, [model.m_imag])[0][0])
            assert np.array_equal(ts.a34, sum_over_states(*probe, [model.quadrupole])[0][0])
            [(a, _)] = sum_over_states(model, r.excited, r.ground, r.pump_intermediates,
                                       omega1, omega2, [model.mu])
            assert np.array_equal(ts.alpha12, 0.5 * (a + np.swapaxes(a, -1, -2)))
            stack = () if points is None else (points,)
            assert ts.alpha34.shape == stack + (3, 3)
            iso = ts.invariants
            assert (iso.alpha.shape, iso.gprime.shape, iso.aquad.shape) == (
                stack + (10,), stack + (14,), stack + (10,))

    def test_inconsistent_model_warns_alpha_and_gprime_defects(self):
        model = single_intermediate_model(mu_both=X, m_both=Y, q_both=np.eye(3))
        model.mu.set("t", "s", Y)  # mu(f,t) != mu(t,s): asymmetric alpha34
        beams = BeamSet.collinear_vvv(0.30, 0.28, 0.33)
        with pytest.warns(UserWarning) as record:
            build_property_tensors(model, beams)
        messages = [str(w.message) for w in record]
        assert any(m.startswith("alpha34: asymmetry defect") for m in messages)
        assert any(m.startswith("gprime34: route disagreement") for m in messages)
