import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carscid.averaging import AveragedTerms, averaged_terms, electric_from_natural
from carscid.cid import (
    HARTREE_TO_CM1,
    StatesMode,
    TensorMode,
    delta_eq12,
    delta_eq13,
    delta_from_averaged_terms,
    signal_for_tensors,
    spectrum,
)
from carscid.errors import DegenerateDenominator
from carscid.invariants import isotropic_invariants, natural_from_isotropic
from carscid.scattering import BeamSet, PhysicalContext, PropertyTensorSet
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
        assert electric_from_natural(nat) == pytest.approx(0.5, abs=1e-14)

    def test_achiral_renditions_vanish(self, rng):
        ts = random_tensor_set(rng, chiral=False)
        nat = nat_of(ts)
        assert delta_eq12(nat, CTX.c) == 0.0
        assert delta_eq13(nat, CTX.c) == 0.0

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
        ctx = PhysicalContext(volume=3.7, rho_s=0.4, rho_f=2.2)
        beams = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(3, 2, 5, 1))
        result = signal_for_tensors(ts, beams, ctx)
        from_rates = (result.rate_r - result.rate_l) / (result.rate_r + result.rate_l)
        assert result.delta == pytest.approx(from_rates, rel=1e-12)

    def test_prefactor_independence(self, rng):
        ts = random_tensor_set(rng)
        deltas = []
        for ctx, photons in ((PhysicalContext(), (1, 1, 1, 1)),
                             (PhysicalContext(volume=9.0, rho_s=0.1, rho_f=7.0),
                              (4, 4, 4, 4)),
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


class TestSpectrum:
    def shifts(self):
        return [900.0, 1000.0, 1100.0]

    def test_achiral_mode_gives_zero_column(self, rng):
        mode = TensorMode(name="m", shift_cm1=1000.0,
                          tensors=random_tensor_set(rng, chiral=False))
        rows = spectrum([mode], 0.10, 0.11, self.shifts(), CTX)
        assert len(rows) == 3
        assert all(row.delta == 0.0 for row in rows)

    def test_mirror_mode_negates_delta_column(self, rng):
        ts = random_tensor_set(rng)
        rows = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                        self.shifts(), CTX)
        rows_m = spectrum([TensorMode("m", 1000.0, ts.enantiomer())], 0.10, 0.11,
                          self.shifts(), CTX)
        for a, b in zip(rows, rows_m):
            assert a.delta == pytest.approx(-b.delta, rel=1e-13)

    def test_constant_isotropic_mode(self):
        g0 = 0.21
        ts = PropertyTensorSet(alpha34=I3, alpha12=I3, gprime34=g0 * I3,
                               a34=np.zeros((3, 3, 3)))
        rows = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                        self.shifts(), CTX)
        for row in rows:
            assert row.delta == pytest.approx(4.0 * g0 / CTX.c, rel=1e-12)

    def test_lorentzian_weights_rates_not_delta(self, rng):
        ts = random_tensor_set(rng)
        plain = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                         self.shifts(), CTX)
        shaped = spectrum([TensorMode("m", 1000.0, ts)], 0.10, 0.11,
                          self.shifts(), CTX, width_cm1=15.0)
        for a, b in zip(plain, shaped):
            assert b.delta == pytest.approx(a.delta, rel=1e-12)
            assert b.rate_r < a.rate_r or b.shift_cm1 == 1000.0

    def test_tensor_mode_invariants_computed_once(self, rng, monkeypatch):
        import carscid.scattering

        calls = []

        def counted(tensors):
            calls.append(tensors)
            return isotropic_invariants(tensors)

        monkeypatch.setattr(carscid.scattering, "isotropic_invariants", counted)
        mode = TensorMode("m", 1000.0, random_tensor_set(rng))
        rows = spectrum([mode], 0.10, 0.11, np.arange(900.0, 1101.0, 1.0), CTX)
        assert len(rows) == 201
        assert calls == [mode.tensors]

    def test_monotone_grid_required(self, rng):
        mode = TensorMode("m", 1000.0, random_tensor_set(rng))
        with pytest.raises(ValueError):
            spectrum([mode], 0.10, 0.11, [1100.0, 900.0], CTX)

    def test_states_mode_rebuilds_tensors(self):
        rng = np.random.default_rng(41)
        model = manifold_consistent_model(rng)
        mode = StatesMode(name="states", model=model)
        shift = mode.shift_cm1
        assert shift == pytest.approx(0.02 * HARTREE_TO_CM1, rel=1e-12)
        rows = spectrum([mode], 0.30, 0.33,
                        [shift - 10.0, shift, shift + 10.0], CTX)
        assert len(rows) == 3
        assert all(np.isfinite(row.delta) for row in rows)
        # tensors are frequency dependent, so delta moves across the grid
        assert rows[0].delta != rows[2].delta

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
