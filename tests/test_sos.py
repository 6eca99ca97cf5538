import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from carscid.cid import HARTREE_TO_CM1
from carscid.errors import (MissingMomentError, NonFiniteResult, ResonanceError,
                            RoleError)
from carscid.model_io import parse_model
from carscid.scattering import BeamSet, PropertyTensorSet
from carscid.sos import (
    MolecularModel,
    MomentTable,
    Roles,
    _denominators,
    build_property_tensors,
    sum_over_states,
)
from carscid.tensors import relative_deviation
from conftest import bench_workloads, manifold_consistent_model, random_sym2


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

    @pytest.mark.parametrize("role", ["pump_intermediates", "probe_intermediates"])
    def test_an_intermediate_listed_twice_is_rejected(self, role):
        model = single_intermediate_model()
        roles = dataclasses.replace(model.roles, **{role: ("t", "f", "t")})
        with pytest.raises(RoleError, match=f"^role '{role}' lists level 't' twice$"):
            dataclasses.replace(model, roles=roles)


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

    def test_sets_are_handed_over_with_the_bits_validation_gives(self):
        # moments near 1e-160 give subnormal tensor entries, whose halves round: the
        # symmetrization that validation repeats on the exact results changes them
        rng = np.random.default_rng(83)
        model = single_intermediate_model(mu_both=1e-160 * rng.normal(size=3),
                                          m_both=1e-160 * rng.normal(size=3),
                                          q_both=1e-160 * random_sym2(rng))
        model.mu.set("t", "s", 1e-160 * rng.normal(size=3))  # an asymmetric alpha34
        beams = BeamSet.collinear_vvv(*np.broadcast_arrays(0.30, np.linspace(0.27, 0.29, 64),
                                                           0.33))
        r = model.roles
        probe = (model, r.final, r.excited, r.probe_intermediates, *beams.omega[2:])
        with pytest.warns(UserWarning):  # the routes disagree
            built = build_property_tensors(model, beams)
        [(a34, _), (g34, _), (aq34, _)] = sum_over_states(
            *probe, [model.mu, model.m_imag, model.quadrupole])
        [(a12, _)] = sum_over_states(model, r.excited, r.ground, r.pump_intermediates,
                                     *beams.omega[:2], [model.mu])
        halved, halved12 = (0.5 * a + 0.5 * np.swapaxes(a, -1, -2) for a in (a34, a12))
        validated = PropertyTensorSet(alpha34=halved, alpha12=halved12, gprime34=g34, a34=aq34)
        assert not np.array_equal(validated.alpha34, halved)  # some halves rounded
        assert not np.array_equal(validated.a34, aq34)
        for name in ("alpha34", "alpha12", "gprime34", "a34"):
            value = getattr(built, name)
            assert value.tobytes() == getattr(validated, name).tobytes()
            assert value.flags.c_contiguous and not value.flags.writeable
        assert built.gprime12 is None and built.a12 is None

    def test_inconsistent_model_warns_alpha_and_gprime_defects(self):
        model = single_intermediate_model(mu_both=X, m_both=Y, q_both=np.eye(3))
        model.mu.set("t", "s", Y)  # mu(f,t) != mu(t,s): asymmetric alpha34
        beams = BeamSet.collinear_vvv(0.30, 0.28, 0.33)
        with pytest.warns(UserWarning) as record:
            build_property_tensors(model, beams)
        messages = [str(w.message) for w in record]
        assert any(m.startswith("alpha34: asymmetry defect") for m in messages)
        assert any(m.startswith("gprime34: route disagreement") for m in messages)


# --------------------------------------------------------------------------
# the element-by-element two-route loop, kept as the reference of `sum_over_states`
# --------------------------------------------------------------------------

def two_route_loop(model, bra, ket, intermediates, omega_a, omega_b, tables):
    """Both routes accumulated intermediate by intermediate, element by element,
    and their relative disagreement: the reference that `sum_over_states` keeps
    route 1 and the polarizability defect of bit for bit."""
    grid = np.broadcast_shapes(np.shape(omega_a), np.shape(omega_b))
    routes = [(np.zeros(grid + (3,) + table.shape), np.zeros(grid + (3,) + table.shape))
              for table in tables]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in intermediates:
            d1, d2 = _denominators(model, t, ket, omega_a, omega_b)
            mu_bt = model.mu.get(bra, t)
            mu_tk = model.mu.get(t, ket)
            for table, (route1, route2) in zip(tables, routes):
                first = np.multiply.outer(mu_bt, table.get(t, ket))
                second = np.multiply.outer(mu_tk, table.get(bra, t))
                e1, e2 = (np.reshape(d, np.shape(d) + (1,) * first.ndim) for d in (d1, d2))
                route1 += table.parity * (first / e1 + second / e2)
                route2 += second / e1 + first / e2
    if not all(np.isfinite(route).all() for pair in routes for route in pair):
        raise NonFiniteResult("sum-over-states tensors overflow the float range")
    return [(r1, relative_deviation(*(r.reshape(grid + (3 * math.prod(table.shape),))
                                      for r in (r1, r2))))
            for table, (r1, r2) in zip(tables, routes)]


def bench_states_case(seed: int):
    """(model, beams) of the `spectrum-states` benchmark model of `seed` at its
    801 grid points, the beams built as `cid.spectrum` builds them."""
    mf = parse_model(bench_workloads().make("spectrum-states", seed).model_text())
    omega1, omega3 = mf.beams.omega1, mf.beams.omega3
    omega2 = omega1 - mf.scan.shifts() / HARTREE_TO_CM1
    return mf.states.model, BeamSet.collinear_vvv(*np.broadcast_arrays(omega1, omega2, omega3),
                                                  photons=mf.beams.photons)


def _both_passes(sos, model, beams):
    """The probe pass (alpha34, G'34, A34) and the pump pass (alpha12) of `sos`."""
    r = model.roles
    omega1, omega2, omega3, omega4 = beams.omega
    return (sos(model, r.final, r.excited, r.probe_intermediates, omega3, omega4,
                [model.mu, model.m_imag, model.quadrupole])
            + sos(model, r.excited, r.ground, r.pump_intermediates, omega1, omega2, [model.mu]))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


#: sha256 of the route-1 tensors (alpha34, G'34, A34, alpha12) and then the two
#: polarizability defects of the 801-point `spectrum-states` benchmark models.
BENCH_STATES_DIGESTS = {
    7: "14aa4913087f01b5d2cc6886204e4c3896e0e3f3a3417841504db15f4d2f90f4",
    13: "5cdd07357ae2d57c362cad83f8004a8eebdac0a6d0f962b248e8d1e41b4abb7a",
    29: "420a5ec3f6b3bbc084d40573389bb08f14cf3682e5518c1a4c48fd8c8959e373",
}


@pytest.mark.parametrize("seed", sorted(BENCH_STATES_DIGESTS))
def test_bench_states_route1_and_alpha_defects_keep_their_bits(seed):
    model, beams = bench_states_case(seed)
    (a34, d34), (g34, _), (aq34, _), (a12, d12) = _both_passes(sum_over_states, model, beams)
    assert a34.shape == (801, 3, 3) and d34.shape == d12.shape == (801,)
    assert _digest(a34, g34, aq34, a12, d34, d12) == BENCH_STATES_DIGESTS[seed]


def inconsistent_model(rng):
    """A consistent random model whose bra-side moments of every table are then
    redrawn, so every route defect is far from zero."""
    model = manifold_consistent_model(rng)
    for bra, ket, intermediates in (("f", "s", model.roles.probe_intermediates),
                                    ("s", "g", model.roles.pump_intermediates)):
        for t in intermediates:
            model.mu.set(bra, t, rng.normal(size=3))
            model.m_imag.set(bra, t, rng.normal(size=3))
            model.quadrupole.set(bra, t, random_sym2(rng))
    return model


class TestAgainstTheTwoRouteLoop:
    """`sum_over_states` against `two_route_loop`: route 1 and the alpha defects
    bit for bit, the G' and A defects to 1e-15, the same errors in the same order."""

    FREQUENCIES = [(0.30, 0.35), (np.linspace(0.27, 0.31, 7), 0.33),
                   (np.linspace(0.2, 0.3, 4), np.linspace(0.31, 0.36, 4))]

    @pytest.mark.parametrize("consistent", [True, False])
    @pytest.mark.parametrize("freq", range(len(FREQUENCIES)))
    def test_route1_and_defects_match_the_loop(self, consistent, freq):
        omega_a, omega_b = self.FREQUENCIES[freq]
        rng = np.random.default_rng([53, freq, consistent])
        for _ in range(5):
            model = (manifold_consistent_model if consistent else inconsistent_model)(rng)
            beams = BeamSet.collinear_vvv(*np.broadcast_arrays(omega_a, omega_a - 0.02, omega_b))
            found = _both_passes(sum_over_states, model, beams)
            expected = _both_passes(two_route_loop, model, beams)
            for j, ((r1, defect), (r1_loop, defect_loop)) in enumerate(zip(found, expected)):
                assert (r1.shape, r1.dtype) == (r1_loop.shape, r1_loop.dtype)
                assert r1.tobytes() == r1_loop.tobytes()  # signed zeros too
                assert type(defect) is type(defect_loop)
                assert np.shape(defect) == np.shape(defect_loop)
                if j in (0, 3):  # alpha34, alpha12
                    assert np.array_equal(defect, defect_loop)
                else:
                    assert np.max(np.abs(np.subtract(defect, defect_loop)), initial=0.0) <= 1e-15
                if not consistent:
                    assert np.min(defect) > 1e-3

    def test_empty_intermediates_and_the_empty_grid(self):
        model = manifold_consistent_model(np.random.default_rng(59))
        r = model.roles
        tables = [model.mu, model.m_imag, model.quadrupole]
        for intermediates, omega in (((), 0.3), ((), np.linspace(0.2, 0.3, 3)),
                                     (r.probe_intermediates, np.zeros(0)),
                                     ((), np.zeros(0))):
            args = (model, r.final, r.excited, intermediates, omega, 0.33, tables)
            found, expected = sum_over_states(*args), two_route_loop(*args)
            for (r1, defect), (r1_loop, defect_loop), table in zip(found, expected, tables):
                grid = np.shape(omega)
                assert r1.shape == grid + (3,) + table.shape
                assert r1.tobytes() == r1_loop.tobytes()
                assert np.array_equal(defect, defect_loop) and np.shape(defect) == grid
                assert type(defect) is type(defect_loop)
                if not intermediates:
                    assert not r1.any() and not np.any(defect)

    @pytest.mark.parametrize("omega", [1.0, np.array([0.3, 0.5, 1.0, 1.2])])
    def test_the_same_resonance_error(self, omega):
        rng = np.random.default_rng(61)
        model = manifold_consistent_model(rng)
        r = model.roles
        # the second probe intermediate's gap lands on a grid frequency
        model.energies[r.probe_intermediates[1]] = model.energies[r.excited] + 1.0
        tables = [model.mu, model.m_imag, model.quadrupole]
        messages = []
        for sos in (sum_over_states, two_route_loop):
            with pytest.raises(ResonanceError) as info:
                sos(model, r.final, r.excited, r.probe_intermediates, omega, 0.33, tables)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"denominator E({r.probe_intermediates[1]},s) - omega_a")

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflow_is_the_same_error(self, scale):
        model = single_intermediate_model(mu_both=scale * X, m_both=scale * Y,
                                          q_both=scale * np.eye(3))
        tables = [model.mu, model.m_imag, model.quadrupole]
        for sos in (sum_over_states, two_route_loop):
            for omega in (1.0, np.array([0.5, 1.0])):
                with pytest.raises(NonFiniteResult, match="^sum-over-states tensors overflow"):
                    sos(model, "f", "s", ("t",), omega, 1.0, tables)

    def test_a_missing_moment_is_the_same_first_error(self):
        model = manifold_consistent_model(np.random.default_rng(67))
        r = model.roles
        names = ("mu", "m_imag", "quadrupole")
        for name in names:
            table = getattr(model, name)
            for pair in table.pairs():
                lacking = MomentTable(table.kind, table.shape, table.parity)
                for other in table.pairs():
                    if other != pair:
                        lacking.set(*other, table.get(*other))
                broken = dataclasses.replace(model, **{name: lacking})
                tables = [getattr(broken, n) for n in names]
                messages = []
                for sos in (sum_over_states, two_route_loop):
                    try:
                        for bra, ket, intermediates in (
                                (r.final, r.excited, r.probe_intermediates),
                                (r.excited, r.ground, r.pump_intermediates)):
                            sos(broken, bra, ket, intermediates, 0.3, 0.33, tables)
                    except MissingMomentError as exc:
                        messages.append(str(exc))
                assert len(messages) == 2 and messages[0] == messages[1]

    def test_peak_memory_stays_below_the_loops(self):
        model, beams = bench_states_case(7)
        r = model.roles
        probe = (model, r.final, r.excited, r.probe_intermediates, *beams.omega[2:],
                 [model.mu, model.m_imag, model.quadrupole])
        build_property_tensors(model, beams)  # warm
        assert _peak(build_property_tensors, model, beams) <= LOOP_BUILD_PEAK_801
        assert _peak(sum_over_states, *probe) <= _peak(two_route_loop, *probe)


#: The tracemalloc peak, in bytes, of `build_property_tensors` on the seed-7
#: model of `bench_states_case` with the two-route loop as `sum_over_states`
#: (Python 3.11, numpy 2.4.6).
LOOP_BUILD_PEAK_801 = 1_332_480


def _peak(function, *args) -> int:
    """The tracemalloc peak, in bytes, of `function(*args)`."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
