import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carscid.errors
from carscid import coefficients as coef
from carscid.averaging import AveragedTerms, averaged_terms, natural_terms
from carscid.cid import (
    HARTREE_TO_CM1,
    StatesMode,
    TensorMode,
    delta_eq12,
    delta_eq13,
    delta_from_averaged_terms,
    lorentzian_weight,
    signal_for_tensors,
    spectrum,
)
from carscid.errors import (CarscidError, DegenerateDenominator, NonFiniteResult,
                            ResonanceError)
from carscid.invariants import (IsotropicInvariantSet, NaturalInvariantSet,
                                dependence_report, isotropic_invariants,
                                natural_from_isotropic)
from carscid.scattering import BeamSet, PhysicalContext, PropertyTensorSet, m_squared_vvvr
from carscid.sos import build_property_tensors
from conftest import manifold_consistent_model, random_tensor_set

I3 = np.eye(3)
CTX = PhysicalContext(normalize=True)
BEAMS = BeamSet.collinear_vvv(0.10, 0.095, 0.11)


def nat_of(ts, omega3=0.11, omega4=0.115):
    return natural_from_isotropic(isotropic_invariants(ts), omega3, omega4)


class TestDeltaFromTerms:
    def test_achiral_gives_zero(self, rng):
        ts = random_tensor_set(rng, chiral=False)
        terms = averaged_terms(ts, 0.11, 0.115, CTX.c)
        assert delta_from_averaged_terms(terms) == 0.0

    def test_enantiomer_flips_sign(self, rng):
        ts = random_tensor_set(rng)
        terms = averaged_terms(ts, 0.11, 0.115, CTX.c)
        mirror = averaged_terms(ts.enantiomer(), 0.11, 0.115, CTX.c)
        assert delta_from_averaged_terms(mirror) == -delta_from_averaged_terms(terms)

    def test_isotropic_gyration_value(self):
        g0 = 0.37
        ts = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=g0 * I3,
                               a34=np.zeros((3, 3, 3)))
        terms = averaged_terms(ts, 0.11, 0.115, CTX.c)
        assert delta_from_averaged_terms(terms) == pytest.approx(
            4.0 * g0 / CTX.c, rel=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            delta_from_averaged_terms(AveragedTerms(0.0, 1.0, 0.0))


class TestNaturalRenditions:
    def test_identity_denominator_is_one_half(self):
        ts = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=np.zeros((3, 3)),
                               a34=np.zeros((3, 3, 3)))
        nat = nat_of(ts)
        assert natural_terms(nat).electric == pytest.approx(0.5, abs=1e-14)

    def test_achiral_renditions_vanish(self, rng):
        ts = random_tensor_set(rng, chiral=False)
        nat = nat_of(ts)
        assert delta_eq12(nat, CTX.c) == 0.0
        assert delta_eq13(nat, CTX.c) == 0.0

    def test_vanishing_electric_rendition_is_a_degenerate_denominator(self):
        # every a value 0 makes the natural electric rendition, the denominator
        # of both ratios, exactly 0.0
        ones = np.ones(len(coef.G_KEYS))
        nat = NaturalInvariantSet(np.zeros(len(coef.A_KEYS)), ones, ones, ones)
        for ratio in (delta_eq12, delta_eq13):
            with pytest.raises(DegenerateDenominator,
                               match=r"^natural-invariant denominator 0\.0 vanished$"):
                ratio(nat, CTX.c)

    def test_two_frequency_collapses_to_single_at_equal_omegas(self, rng):
        for _ in range(10):
            ts = random_tensor_set(rng)
            nat = nat_of(ts, 0.11, 0.11)
            assert delta_eq12(nat, CTX.c) == pytest.approx(
                delta_eq13(nat, CTX.c), rel=1e-14)

    def test_enantiomer_flips_renditions(self, rng):
        ts = random_tensor_set(rng)
        nat = nat_of(ts)
        nat_m = nat_of(ts.enantiomer())
        assert delta_eq12(nat_m, CTX.c) == pytest.approx(
            -delta_eq12(nat, CTX.c), rel=1e-13)
        assert delta_eq13(nat_m, CTX.c) == pytest.approx(
            -delta_eq13(nat, CTX.c), rel=1e-13)


class TestSignalResult:
    def test_pipeline_equality_with_full_prefactors(self, rng):
        ts = random_tensor_set(rng)
        ctx = PhysicalContext()
        beams = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(3, 2, 5, 1))
        result = signal_for_tensors(ts, beams, ctx)
        from_rates = (result.rate_r - result.rate_l) / (result.rate_r + result.rate_l)
        assert result.delta == pytest.approx(from_rates, rel=1e-12)

    def test_prefactor_independence(self, rng):
        ts = random_tensor_set(rng)
        deltas = []
        for ctx, photons in ((PhysicalContext(), (1, 1, 1, 1)),
                             (PhysicalContext(), (4, 4, 4, 4)),
                             (PhysicalContext(normalize=True), (2, 1, 1, 3))):
            beams = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=photons)
            deltas.append(signal_for_tensors(ts, beams, ctx).delta)
        assert deltas[0] == pytest.approx(deltas[1], rel=1e-12)
        assert deltas[0] == pytest.approx(deltas[2], rel=1e-12)

    def test_uniform_rescaling_leaves_delta_invariant(self, rng):
        ts = random_tensor_set(rng)
        lam = 2.9
        scaled = PropertyTensorSet(alpha34=lam * ts.alpha34,
                                   alpha12=lam * ts.alpha12,
                                   gprime34=lam * ts.gprime34,
                                   a34=lam * ts.a34)
        d1 = signal_for_tensors(ts, BEAMS, CTX).delta
        d2 = signal_for_tensors(scaled, BEAMS, CTX).delta
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_beams_off_the_collinear_geometry_are_refused(self, rng):
        # once answered with the collinear value, bit for bit
        tilt = np.sqrt(0.5)
        beams = BeamSet(omega=BEAMS.omega,
                        khat=np.array([[tilt, 0.0, tilt], *BEAMS.khat[1:]]),
                        pol=np.array([[tilt, 0.0, -tilt], *BEAMS.pol[1:]]), photons=np.ones(4))
        ts = random_tensor_set(rng)
        for evaluate in (signal_for_tensors, m_squared_vvvr):
            with pytest.raises(ValueError, match=r"^khat\[0\]: the collinear evaluator "
                                                 r"needs E_Z within 1e-12$"):
                evaluate(ts, beams, CTX)

    def test_the_left_analyzer_gives_the_same_result(self, rng):
        ts = random_tensor_set(rng)
        right = signal_for_tensors(ts, BeamSet.collinear_vvv(0.10, 0.095, 0.11), PhysicalContext())
        left = signal_for_tensors(ts, BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="L"),
                                  PhysicalContext())
        assert _hexes(*dataclasses.astuple(left)) == _hexes(*dataclasses.astuple(right))

    def test_consistency_flags_behave(self, rng):
        # the production ratio and the single-frequency rendition share the
        # electric denominator; the magnetic g-block defect shows up in the
        # deviations for chiral inputs with nonzero gyration
        ts = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=I3,
                               a34=np.zeros((3, 3, 3)))
        result = signal_for_tensors(ts, BEAMS, CTX)
        assert not result.two_frequency_consistent
        assert not result.single_frequency_consistent
        achiral = random_tensor_set(rng, chiral=False)
        result0 = signal_for_tensors(achiral, BEAMS, CTX)
        assert result0.two_frequency_consistent
        assert result0.single_frequency_consistent


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_delta_sign_flip_property(seed):
    rng = np.random.default_rng(seed)
    ts = random_tensor_set(rng)
    terms = averaged_terms(ts, 0.11, 0.115, 137.035999)
    mirror = averaged_terms(ts.enantiomer(), 0.11, 0.115, 137.035999)
    assert delta_from_averaged_terms(mirror) == -delta_from_averaged_terms(terms)


FIRST_FAILING = [
    (3, (ResonanceError, "mode 'hot' at shift 950.0")),  # the earlier point wins
    (0, (ValueError, "alpha34: entries must be finite")),
]


class TestSpectrum:
    def shifts(self):
        return [900.0, 1000.0, 1100.0]

    def test_achiral_mode_gives_zero_column(self, rng):
        mode = TensorMode(name="m", shift_cm1=1000.0,
                          tensors=random_tensor_set(rng, chiral=False))
        spec = spectrum([mode], 0.10, 0.11, self.shifts(), CTX)
        assert len(spec.delta) == 3
        assert all(delta == 0.0 for delta in spec.delta)

    def test_mirror_mode_negates_delta_column(self, rng):
        ts = random_tensor_set(rng)
        spec = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                        self.shifts(), CTX)
        spec_m = spectrum([TensorMode("m", 1000.0, ts.enantiomer())], 0.10, 0.11,
                          self.shifts(), CTX)
        for a, b in zip(spec.delta, spec_m.delta):
            assert a == pytest.approx(-b, rel=1e-13)

    def test_constant_isotropic_mode(self):
        g0 = 0.21
        ts = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=g0 * I3,
                               a34=np.zeros((3, 3, 3)))
        spec = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                        self.shifts(), CTX)
        for delta in spec.delta:
            assert delta == pytest.approx(4.0 * g0 / CTX.c, rel=1e-12)

    def test_lorentzian_weights_rates_not_delta(self, rng):
        ts = random_tensor_set(rng)
        plain = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                         self.shifts(), CTX)
        shaped = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                          self.shifts(), CTX, width_cm1=15.0)
        for j in range(len(plain.delta)):
            assert shaped.delta[j] == pytest.approx(plain.delta[j], rel=1e-12)
            assert shaped.rate_r[j] < plain.rate_r[j] or shaped.shift_cm1[j] == 1000.0

    def test_tensor_mode_invariants_computed_once(self, rng, monkeypatch):
        import carscid.scattering

        calls = []

        def counted(tensors):
            calls.append(tensors)
            return isotropic_invariants(tensors)

        monkeypatch.setattr(carscid.scattering, "isotropic_invariants", counted)
        modes = [TensorMode(f"m{j}", 1000.0 + 50.0 * j, random_tensor_set(rng))
                 for j in range(3)]
        shifts = np.arange(900.0, 2100.0, 1.0)  # two batches of errors.MAX_BATCH
        for _ in range(2):  # one kernel call per spectrum call
            calls.clear()
            spec = spectrum(modes, 0.10, 0.11, shifts, CTX, width_cm1=12.0)
            assert len(spec.delta) == 1200
            [stack] = calls
            for name in TestStackedSets.FIELDS:
                rows = getattr(stack, name).reshape((3,) + getattr(modes[0].tensors, name).shape)
                assert _hexes(*rows) == _hexes(*(getattr(m.tensors, name) for m in modes))

    def test_modes_given_as_an_iterator_are_read_once(self, rng):
        modes = [TensorMode("m0", 1000.0, random_tensor_set(rng)),
                 TensorMode("m1", 1600.0, random_tensor_set(rng))]
        shifts = np.arange(500.0, 2000.0)  # 1500 points, two batches
        listed = spectrum(modes, 0.10, 0.11, shifts, CTX, width_cm1=12.0)
        generated = spectrum((m for m in modes), 0.10, 0.11, shifts, CTX, width_cm1=12.0)
        assert all(_hexes(a) == _hexes(b) for a, b in zip(listed, generated))

    @pytest.mark.parametrize("sets,points", [(2, 3), (2, 2), (1100, 1100)])
    def test_a_tensor_mode_refuses_a_stack(self, rng, sets, points):
        # a stack was once read as one set per grid point: a numpy error over 3
        # points, silently mixed sets over 2, and the error again past one batch
        stack = PropertyTensorSet.joined([random_tensor_set(rng)] * sets)
        with pytest.raises(ValueError, match=r"^mode 'm': a TensorMode holds one tensor set, "
                                             r"not a stack$"):
            spectrum([TensorMode("m", 1000.0, stack)], 0.10, 0.11,
                     900.0 + np.arange(points), CTX)

    def test_a_user_stack_of_the_wrong_size_is_an_error_of_its_mode(self, rng):
        # it once ended in numpy's "non-broadcastable output operand" ValueError
        stack = PropertyTensorSet.joined([random_tensor_set(rng) for _ in range(2)])
        with pytest.raises(CarscidError, match=r"^mode 'u' at shift 900\.0 cm\^-1: tensors_at "
                                               r"gave a stack of shape \(2,\) over a grid of "
                                               r"shape \(1,\): expected one set or one per "
                                               r"point$"):
            spectrum([FixedSets("u", stack)], 0.10, 0.11, [900.0, 1000.0, 1100.0], CTX)

    @pytest.mark.parametrize("sets", [None, 1, 2])
    def test_a_user_set_or_stack_of_one_set_per_point_serves_its_points(self, rng, sets):
        tensors = [random_tensor_set(rng) for _ in range(sets or 1)]
        given = tensors[0] if sets is None else PropertyTensorSet.joined(tensors)
        shifts = [900.0, 1000.0]
        scanned = spectrum([FixedSets("u", given)], 0.10, 0.11, shifts, CTX, width_cm1=50.0)
        for j, shift in enumerate(shifts):  # each point from its set, as a TensorMode
            alone = spectrum([TensorMode("t", 1000.0, tensors[j % len(tensors)])], 0.10, 0.11,
                             [shift], CTX, width_cm1=50.0)
            assert _hexes(*(column[j] for column in scanned)) == _hexes(*alone)

    def test_monotone_grid_required(self, rng):
        mode = TensorMode("m", 1000.0, random_tensor_set(rng))
        with pytest.raises(ValueError):
            spectrum([mode], 0.10, 0.11, [1100.0, 900.0], CTX)
        with pytest.raises(ValueError, match="one-dimensional"):
            spectrum([mode], 0.10, 0.11, [[900.0, 1000.0], [1100.0, 1200.0]], CTX)
        with pytest.raises(ValueError, match="one-dimensional"):
            spectrum([mode], 0.10, 0.11, 1000.0, CTX)

    @pytest.mark.parametrize("width", [-5.0, 0.0, float("nan"), float("inf")])
    def test_width_must_be_positive_and_finite(self, rng, width):
        # checked before any work, as `ScanSpec` checks a file's or the CLI's width
        mode = TensorMode("m", 1000.0, random_tensor_set(rng))
        with pytest.raises(ValueError, match=r"width_cm1 .*: must be positive and finite"):
            spectrum([mode], 0.10, 0.11, self.shifts(), CTX, width_cm1=width)

    def test_an_empty_grid_gives_no_rows_and_still_checks_the_photons(self):
        mode = StatesMode(name="states",
                          model=manifold_consistent_model(np.random.default_rng(41)))
        assert all(column.shape == (0,) and column.dtype == np.float64
                   for column in spectrum([mode], 0.30, 0.33, [], CTX))
        with pytest.raises(ValueError, match=r"BeamSet\.photons"):
            spectrum([mode], 0.30, 0.33, [], CTX, photons=(-1.0, 1.0, 1.0, 1.0))

    def test_states_mode_rebuilds_tensors(self):
        rng = np.random.default_rng(41)
        model = manifold_consistent_model(rng)
        mode = StatesMode(name="states", model=model)
        shift = mode.shift_cm1
        assert shift == pytest.approx(0.02 * HARTREE_TO_CM1, rel=1e-12)
        spec = spectrum([mode], 0.30, 0.33,
                        [shift - 10.0, shift, shift + 10.0], CTX)
        assert len(spec.delta) == 3
        assert all(np.isfinite(delta) for delta in spec.delta)
        # tensors are frequency dependent, so delta moves across the grid
        assert spec.delta[0] != spec.delta[2]

    def test_resonant_grid_point_names_mode_and_shift(self):
        from carscid.errors import ResonanceError

        rng = np.random.default_rng(43)
        model = manifold_consistent_model(rng)
        mode = StatesMode(name="hot", model=model)
        # pump omega1 sitting exactly on an intermediate gap above the ground
        # level makes the first pump denominator vanish at every grid point
        gap = min(model.energy_gap(t, "g")
                  for t in model.roles.pump_intermediates)
        with pytest.raises(ResonanceError, match=r"'hot' at shift 50"):
            spectrum([mode], gap, 0.33, [50.0], CTX)

    def test_lorentzian_weight_over_a_grid_squares_as_float_pow(self):
        # offsets whose x * x rounds away from x ** 2: the grid must keep the
        # envelope bits of the per-point float formula
        width = 5.0
        half = 0.5 * width
        for shift, center in ((6753.079384469165, 1109.669510314683),
                              (2661.4356533436658, 1088.5742760829892)):
            expected = half * half / ((shift - center) ** 2 + half * half)
            assert lorentzian_weight(np.array([shift]), center, width)[0] == expected

    def test_states_mode_grid_pass_equals_point_by_point_builds(self):
        rng = np.random.default_rng(53)
        model = manifold_consistent_model(rng)
        mode = StatesMode(name="states", model=model)
        ctx = PhysicalContext()
        omega1, omega3, width = 0.30, 0.33, 12.0
        shifts = mode.shift_cm1 + np.arange(-20.0, 21.0, 2.5)
        spec = spectrum([mode], omega1, omega3, shifts, ctx, width_cm1=width)
        grid = mode.tensors_at(BeamSet.collinear_vvv(
            *np.broadcast_arrays(omega1, omega1 - shifts / HARTREE_TO_CM1, omega3)))
        # the reference: one beam set, one tensor set and one closed form per point
        for j, shift in enumerate(shifts.tolist()):
            beams = BeamSet.collinear_vvv(omega1, omega1 - shift / HARTREE_TO_CM1, omega3)
            tensors = build_property_tensors(model, beams)
            for name in ("alpha34", "alpha12", "gprime34", "a34"):
                assert np.array_equal(getattr(grid, name)[j], getattr(tensors, name))
            terms = averaged_terms(tensors, omega3, float(beams.omega[3]), ctx.c)
            half = 0.5 * width  # the envelope on Python floats, ** included
            weight = half * half / ((shift - mode.shift_cm1) ** 2 + half * half)
            scale = weight * (ctx.rate_prefactor() * ctx.m2_prefactor(beams))
            rate_r = scale * (terms.electric + terms.chiral)
            rate_l = scale * (terms.electric - terms.chiral)
            assert (spec.shift_cm1[j], spec.omega2[j]) == (shift, float(beams.omega[1]))
            assert (spec.rate_r[j], spec.rate_l[j]) == (rate_r, rate_l)
            assert spec.delta[j] == (rate_r - rate_l) / (rate_r + rate_l)

    def test_interior_resonance_names_its_shift_and_mode(self, rng):
        omega1, shifts = 0.30, [900.0, 950.0, 1000.0, 1050.0]
        modes = [TensorMode("cold", 1000.0, random_tensor_set(rng)),
                 resonant_mode("hot", omega1, shifts[2])]
        with pytest.raises(ResonanceError) as info:
            spectrum(modes, omega1, 0.33, shifts, CTX)
        assert str(info.value) == ("mode 'hot' at shift 1000.0 cm^-1: denominator "
                                   "E(low,g) + omega_b = 0.0 is within the resonance "
                                   "guard 1e-08")

    @pytest.mark.parametrize("bad, expected", FIRST_FAILING)
    def test_first_failing_point_wins_across_modes_and_error_kinds(self, rng, bad, expected):
        omega1, shifts = 0.30, [900.0, 950.0, 1000.0, 1050.0]
        modes = [InfiniteAt("broken", omega1 - shifts[bad] / HARTREE_TO_CM1,
                            random_tensor_set(rng)),
                 resonant_mode("hot", omega1, shifts[1])]
        with pytest.raises(Exception) as info:
            spectrum(modes, omega1, 0.33, shifts, CTX)
        assert type(info.value) is expected[0] and str(info.value).startswith(expected[1])

    def test_route_inconsistent_model_warns_per_grid_point_as_alone(self):
        omega1, omega3 = 0.30, 0.33
        modes = [route_inconsistent_mode("a", 67), route_inconsistent_mode("b", 71)]
        shifts = [modes[0].shift_cm1 + d for d in (-5.0, 0.0, 5.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = spectrum(modes, omega1, omega3, shifts, CTX)
        assert len(spec.delta) == 3
        expected = alone_warnings(modes, omega1, omega3, shifts)  # point by point
        assert len(expected) == 6 and expected[0] != expected[1]  # the modes' texts differ
        assert all(m.startswith("gprime34: route disagreement") for m in expected)
        assert [str(w.message) for w in caught] == expected

    def test_failing_spectrum_warns_only_up_to_its_failing_point(self):
        omega1, omega3 = 0.30, 0.33
        noisy = route_inconsistent_mode("m", 67)
        shifts = [noisy.shift_cm1 + d for d in (-10.0, -5.0, 0.0, 5.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ResonanceError, match="mode 'hot' at shift"):
                spectrum([noisy, resonant_mode("hot", omega1, shifts[2])],
                         omega1, omega3, shifts, CTX)
        # points 0 to 2 of the first mode warn; the second mode fails at point 2
        assert [str(w.message) for w in caught] == alone_warnings(
            [noisy], omega1, omega3, shifts[:3])

    @pytest.mark.parametrize("batch", [1, 1024])
    def test_a_user_mode_that_builds_one_set_warns_as_row_0_of_its_stack(
            self, rng, batch, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", batch)
        omega1, omega3 = 0.30, 0.33
        noisy, user = route_inconsistent_mode("m", 67), SkewedSet("u", random_tensor_set(rng))
        shifts = [noisy.shift_cm1 + d for d in (-5.0, 0.0, 5.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spectrum([noisy, user], omega1, omega3, shifts, CTX)
        states = alone_warnings([noisy], omega1, omega3, shifts)
        [skew] = alone_warnings([user], omega1, omega3, shifts[:1])
        assert skew.startswith("alpha34: symmetrized away relative asymmetry")
        # point by point, the set is built and warns at every point; in one batch
        # it is built once, and its warning sorts as the stack's row 0
        expected = ([states[0], skew, states[1], skew, states[2], skew] if batch == 1
                    else [states[0], skew, states[1], states[2]])
        assert [str(w.message) for w in caught] == expected

    # the first failing mode of the first failing point raises, after the warnings
    # of what ran before it; the messages were recorded with the mode-by-mode scan

    @pytest.mark.parametrize("batch", [2, 1024])
    def test_second_of_three_modes_overflowing_its_invariants_raises_as_alone(
            self, rng, batch, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", batch)
        modes = [TensorMode("m0", 1000.0, random_tensor_set(rng)),
                 TensorMode("m1", 1100.0, overflowing_set(rng)),
                 TensorMode("m2", 1200.0, random_tensor_set(rng))]
        with pytest.raises(NonFiniteResult) as info:
            spectrum(modes, 0.10, 0.11, np.arange(900.0, 2100.0), CTX, width_cm1=12.0)
        assert str(info.value) == ("mode 'm1' at shift 900.0 cm^-1: isotropic invariants "
                                   "overflow the float range")

    @pytest.mark.parametrize("batch", [2, 1024])
    def test_third_mode_whose_lorentzian_overflows_raises_as_alone(self, rng, batch,
                                                                  monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", batch)
        modes = [TensorMode(f"m{j}", shift, random_tensor_set(rng))
                 for j, shift in enumerate((1000.0, 1100.0, 1e200))]
        with pytest.raises(NonFiniteResult) as info:
            spectrum(modes, 0.10, 0.11, np.arange(900.0, 2100.0), CTX, width_cm1=12.0)
        assert str(info.value) == ("mode 'm2' at shift 900.0 cm^-1: Lorentzian offset "
                                   "overflows the float range")

    @pytest.mark.parametrize("batch", [2, 1024])
    @pytest.mark.parametrize("order, resonant, expected", [
        ("tensor first", 0, (NonFiniteResult, "mode 'over' at shift 900.0 cm^-1: isotropic "
                                              "invariants overflow the float range")),
        ("states first", 0, (ResonanceError, "mode 'hot' at shift 900.0 cm^-1: denominator "
                                             "E(low,g) + omega_b = 0.0 is within the "
                                             "resonance guard 1e-08")),
        ("states first", 1, (NonFiniteResult, "mode 'over' at shift 900.0 cm^-1: isotropic "
                                              "invariants overflow the float range")),
    ])
    def test_an_overflowing_tensor_mode_and_a_resonant_states_mode_raise_in_mode_order(
            self, rng, batch, order, resonant, expected, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", batch)
        omega1, shifts = 0.30, [900.0, 950.0, 1000.0, 1050.0]
        modes = [TensorMode("over", 1000.0, overflowing_set(rng)),
                 resonant_mode("hot", omega1, shifts[resonant])]
        if order == "states first":
            modes.reverse()
        with pytest.raises(Exception) as info:
            spectrum(modes, omega1, 0.33, shifts, CTX, width_cm1=12.0)
        assert (type(info.value), str(info.value)) == expected

    @pytest.mark.parametrize("batch", [2, 1024])
    @pytest.mark.parametrize("fails", [False, True])
    def test_a_warning_user_mode_among_tensor_modes_keeps_its_warnings_in_order(
            self, rng, batch, fails, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", batch)
        omega1, omega3 = 0.30, 0.33
        noisy, user = route_inconsistent_mode("m", 67), SkewedSet("u", random_tensor_set(rng))
        last = overflowing_set(rng) if fails else random_tensor_set(rng)
        modes = [TensorMode("t0", 1000.0, random_tensor_set(rng)), noisy, user,
                 TensorMode("t1", 1100.0, last)]
        shifts = [noisy.shift_cm1 + d for d in (-5.0, 0.0, 5.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if fails:
                with pytest.raises(NonFiniteResult, match="^mode 't1' at shift "):
                    spectrum(modes, omega1, omega3, shifts, CTX, width_cm1=12.0)
            else:
                spectrum(modes, omega1, omega3, shifts, CTX, width_cm1=12.0)
        states = alone_warnings([noisy], omega1, omega3, shifts)
        [skew] = alone_warnings([user], omega1, omega3, shifts[:1])
        # the set is built once per batch and warns as its row 0; a failing scan
        # raises at its first point, after that point's two warnings
        expected = ([states[0], skew] if fails else
                    [states[0], skew, states[1], states[2], skew] if batch == 2
                    else [states[0], skew, states[1], states[2]])
        assert [str(w.message) for w in caught] == expected

    # the same errors and warnings, in the same order, when the grid runs in
    # batches of two points

    def test_interior_resonance_in_batches_of_two(self, rng, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
        self.test_interior_resonance_names_its_shift_and_mode(rng)

    @pytest.mark.parametrize("bad, expected", FIRST_FAILING)
    def test_first_failing_point_wins_in_batches_of_two(self, rng, bad, expected, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
        self.test_first_failing_point_wins_across_modes_and_error_kinds(rng, bad, expected)

    def test_warnings_per_grid_point_in_batches_of_two(self, monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
        self.test_route_inconsistent_model_warns_per_grid_point_as_alone()

    def test_failing_spectrum_warns_up_to_its_failing_point_in_batches_of_two(self,
                                                                              monkeypatch):
        monkeypatch.setattr(carscid.errors, "MAX_BATCH", 2)
        self.test_failing_spectrum_warns_only_up_to_its_failing_point()

    def test_memory_is_bounded_by_the_batch_not_the_grid(self):
        # 8001 points run as 8 batches of at most errors.MAX_BATCH points, so the
        # peak is the rows plus one batch, not ten times that of a one-batch grid
        mode = StatesMode(name="states",
                          model=manifold_consistent_model(np.random.default_rng(53)))

        def peak(points):
            shifts = mode.shift_cm1 + np.linspace(-400.0, 400.0, points)
            tracemalloc.start()
            try:
                spectrum([mode], 0.30, 0.33, shifts, CTX, width_cm1=12.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8001) <= 3 * peak(801)

    def test_memory_per_grid_point_is_the_result_columns(self, rng):
        # batches bound the work, so what grows with the grid is what it keeps:
        # five float64 columns are 40 B a point, a row object per point was 248 B
        mode = TensorMode("m", 1000.0, random_tensor_set(rng))

        def peak(points):
            shifts = np.linspace(500.0, 1500.0, points)
            tracemalloc.start()
            try:
                spectrum([mode], 0.10, 0.11, shifts, CTX, width_cm1=12.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_001) - peak(4_001) <= 128 * 36_000


def resonant_mode(name, omega1, shift):
    """A states mode with a pump intermediate below the ground level, where
    E(low,g) + omega2 vanishes at `shift` only."""
    model = manifold_consistent_model(np.random.default_rng(59))
    model.energies["low"] = -(omega1 - shift / HARTREE_TO_CM1)
    p = np.array([0.1, 0.2, 0.3])
    model.mu.set("s", "low", p)
    model.mu.set("low", "g", 2.0 * p)  # parallel moments: alpha12 stays symmetric
    roles = dataclasses.replace(
        model.roles, pump_intermediates=model.roles.pump_intermediates + ("low",))
    return StatesMode(name, dataclasses.replace(model, roles=roles))


def route_inconsistent_mode(name, seed):
    """A states mode whose G' routes disagree, so every grid point warns."""
    model = manifold_consistent_model(np.random.default_rng(seed))
    t = model.roles.probe_intermediates[0]
    model.m_imag.set(model.roles.final, t, [0.3, -0.2, 0.5])
    return StatesMode(name=name, model=model)


def alone_warnings(modes, omega1, omega3, shifts):
    """The warning texts of one tensor build per grid point and mode, in that order."""
    texts = []
    for shift in shifts:
        beams = BeamSet.collinear_vvv(omega1, omega1 - shift / HARTREE_TO_CM1, omega3)
        for mode in modes:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mode.tensors_at(beams)
            texts += [str(w.message) for w in caught]
    return texts


def overflowing_set(rng):
    """A random chiral set with alpha34 scaled by 1e200: its invariants overflow."""
    t = random_tensor_set(rng)
    return PropertyTensorSet(alpha34=1e200 * t.alpha34, alpha12=t.alpha12,
                             gprime34=t.gprime34, a34=t.a34)


@dataclasses.dataclass(frozen=True)
class InfiniteAt:
    """A mode whose alpha34 is infinite at the grid point with Stokes frequency
    `omega2`, so its tensor set fails validation there only."""

    name: str
    omega2: float
    tensors: PropertyTensorSet
    shift_cm1: float = 1000.0

    def tensors_at(self, beams):
        bad = np.reshape(beams.omega[1] == self.omega2, (-1, 1, 1))
        stack = {name: np.broadcast_to(getattr(self.tensors, name), bad.shape[:1] + shape)
                 for name, shape in (("alpha12", (3, 3)), ("gprime34", (3, 3)),
                                     ("a34", (3, 3, 3)))}
        return PropertyTensorSet(alpha34=np.where(bad, np.inf, self.tensors.alpha34), **stack)


@dataclasses.dataclass(frozen=True)
class FixedSets:
    """A mode whose `tensors_at` gives its `tensors`, one set or a stack, for any beams."""

    name: str
    tensors: PropertyTensorSet
    shift_cm1: float = 1000.0

    def tensors_at(self, beams):
        return self.tensors


@dataclasses.dataclass(frozen=True)
class SkewedSet:
    """A mode whose `tensors_at` builds one unstacked set for any beams, its
    alpha34 skewed by a relative 1e-9, so each build warns once."""

    name: str
    tensors: PropertyTensorSet
    shift_cm1: float = 1000.0

    def tensors_at(self, beams):
        t = self.tensors
        skew = np.zeros((3, 3))
        skew[0, 1] = 1e-9 * np.abs(t.alpha34).max()
        return PropertyTensorSet(alpha34=t.alpha34 + skew, alpha12=t.alpha12,
                                 gprime34=t.gprime34, a34=t.a34)


def _hexes(*values):
    return [float.hex(v) for value in values for v in np.ravel(value).tolist()]


class TestStackedSets:
    """A stack of sets gets, set by set, the bits each set gets alone."""

    FIELDS = ("alpha34", "alpha12", "gprime34", "a34")

    def sample(self, rng):
        """200 random chiral sets, an enantiomer pair, an achiral set, and two
        sets scaled by 1e-37 and 1e37 (invariants near 1e-148 and 1e148)."""
        sets = [random_tensor_set(rng) for _ in range(200)]
        sets += [sets[0].enantiomer(), random_tensor_set(rng, chiral=False)]
        sets += [PropertyTensorSet(**{name: scale * getattr(random_tensor_set(rng), name)
                                      for name in self.FIELDS}) for scale in (1e-37, 1e37)]
        stack = PropertyTensorSet(**{name: np.stack([getattr(t, name) for t in sets])
                                     for name in self.FIELDS})
        return sets, stack, rng.uniform(0.07, 0.085, len(sets)), rng.uniform(0.075, 0.085,
                                                                              len(sets))

    def test_signal_for_tensors(self, rng):
        sets, stack, omega2, omega3 = self.sample(rng)
        ctx = PhysicalContext()
        beams = BeamSet.collinear_vvv(np.full(len(sets), 0.09), omega2, omega3)
        stacked = signal_for_tensors(stack, beams, ctx)
        for j, tensors in enumerate(sets):
            alone = signal_for_tensors(
                tensors, BeamSet.collinear_vvv(0.09, omega2[j].item(), omega3[j].item()), ctx)
            for name in ("delta", "delta_two_frequency", "delta_single_frequency", "rate_r",
                         "rate_l", "two_frequency_deviation", "single_frequency_deviation"):
                assert _hexes(getattr(stacked, name)[j]) == _hexes(getattr(alone, name))
            assert _hexes(*(np.asarray(v)[j] for v in dataclasses.astuple(stacked.terms))) \
                == _hexes(*dataclasses.astuple(alone.terms))

    def test_naturals_and_dependence_report(self, rng):
        _, stack, _, omega3 = self.sample(rng)
        iso = stack.invariants
        # invariants scaled by 1e-150, 1e150 and 1e-300: one stack spans the float range
        iso = IsotropicInvariantSet(*(np.concatenate([v, v[:1] * 1e-150, v[:1] * 1e150,
                                                      v[:1] * 1e-300])
                                      for v in (iso.alpha, iso.gprime, iso.aquad)))
        omega3 = np.concatenate([omega3, [0.08, 0.081, 0.082]])
        omega4 = omega3 + 0.005
        nat = natural_from_isotropic(iso, omega3, omega4)
        deps = dependence_report(iso)
        for j in range(len(omega3)):
            row = IsotropicInvariantSet(iso.alpha[j], iso.gprime[j], iso.aquad[j])
            alone = natural_from_isotropic(row, omega3[j].item(), omega4[j].item())
            assert _hexes(*(v[j] for v in dataclasses.astuple(nat))) \
                == _hexes(*dataclasses.astuple(alone))
            for name, family in dependence_report(row).items():
                assert _hexes(deps[name]["residual"][j], deps[name]["relative"][j]) \
                    == _hexes(family["residual"], family["relative"])
