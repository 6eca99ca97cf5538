"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 04 and 12 are expected to fail: the packaged quadrupole
closed-form coefficient table does not reproduce the SO(3) average of the
collinear quadrupole bracket when the probe and anti-Stokes frequencies
differ (it is exact when they coincide; `carscid verify` isolates and reports
the deviation).  The coefficient table is fixed reference data and is not
auto-corrected, so these two criteria stay red on purpose.
"""
import time
from fractions import Fraction

import numpy as np

from carscid import coefficients as coef
from carscid.averaging import (
    averaged_electric,
    averaged_magnetic,
    averaged_quadrupole,
    averaged_terms,
    electric_from_natural,
    magnetic_from_natural,
    rotated_bracket_terms,
    so3_quadrature_average,
)
from carscid.cid import delta_from_averaged_terms, signal_for_tensors
from carscid.cli import main as cli_main
from carscid.invariants import (
    dependence_report,
    isotropic_invariants,
    natural_from_isotropic,
)
from carscid.scattering import (
    BeamSet,
    PhysicalContext,
    PropertyTensorSet,
    m_squared_general,
    m_squared_vvvl,
    m_squared_vvvr,
)
from carscid.tensors import haar_random_rotation
from conftest import (
    random_rank3_symlast,
    random_sym2,
    random_tensor_set,
    totally_symmetric_rank3,
)

I3 = np.eye(3)
C = 137.035999
W3, W4 = 0.10, 0.12
CTX = PhysicalContext(normalize=True)


def report(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))


def test_criterion_01_electric_closed_form_vs_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3)))
        closed = averaged_electric(isotropic_invariants(ts))
        quad = so3_quadrature_average(rotated_bracket_terms(ts, W3, W4, C)[0]).value
        worst = max(worst, abs(closed - quad) / max(abs(closed), abs(quad)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, "rank-8 electric closed form vs oracle", ok,
           f"worst rel dev {worst:.2e}, {elapsed:.1f}s for 20 sets")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_02_electric_anchor_values():
    iso_i = isotropic_invariants(PropertyTensorSet(
        alpha34=I3, alpha12=I3, gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3))))
    d = np.diag([1.0, 0.0, 0.0])
    iso_d = isotropic_invariants(PropertyTensorSet(
        alpha34=d, alpha12=d, gprime34=np.zeros((3, 3)), a34=np.zeros((3, 3, 3))))
    dev_i = abs(averaged_electric(iso_i) - 0.5)
    dev_d = abs(averaged_electric(iso_d) - 4.0 / 63.0)
    ok = dev_i <= 1e-12 and dev_d <= 1e-12
    report(2, "electric anchors 1/2 and 4/63", ok,
           f"devs {dev_i:.1e}, {dev_d:.1e}")
    assert dev_i <= 1e-12
    assert dev_d <= 1e-12


def test_criterion_03_magnetic_closed_form_vs_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=rng.normal(size=(3, 3)),
                               a34=np.zeros((3, 3, 3)))
        closed = averaged_magnetic(isotropic_invariants(ts), C)
        quad = so3_quadrature_average(rotated_bracket_terms(ts, W3, W4, C)[1]).value
        worst = max(worst, abs(closed - quad) / max(abs(closed), abs(quad)))
    iso = isotropic_invariants(PropertyTensorSet(
        alpha34=I3, alpha12=I3, gprime34=I3, a34=np.zeros((3, 3, 3))))
    anchor_dev = abs(averaged_magnetic(iso, C) - 2.0 / C)
    ok = worst <= 1e-9 and anchor_dev <= 1e-12
    report(3, "rank-8 magnetic closed form vs oracle", ok,
           f"worst rel dev {worst:.2e}, anchor dev {anchor_dev:.1e}")
    assert worst <= 1e-9
    assert anchor_dev <= 1e-12


def test_criterion_04_quadrupole_closed_form_vs_oracle():
    rng = np.random.default_rng(1004)
    sym = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                            gprime34=np.zeros((3, 3)),
                            a34=totally_symmetric_rank3(rng))
    sym_zero = averaged_quadrupole(isotropic_invariants(sym), W3, W4, C)
    worst = 0.0
    for _ in range(20):
        ts = PropertyTensorSet(alpha34=random_sym2(rng), alpha12=random_sym2(rng),
                               gprime34=np.zeros((3, 3)),
                               a34=random_rank3_symlast(rng))
        closed = averaged_quadrupole(isotropic_invariants(ts), W3, W4, C)
        quad = so3_quadrature_average(rotated_bracket_terms(ts, W3, W4, C)[2]).value
        worst = max(worst, abs(closed - quad) / max(abs(closed), abs(quad)))
    ok = worst <= 1e-9 and sym_zero == 0.0
    report(4, "rank-9 quadrupole closed form vs oracle", ok,
           f"worst rel dev {worst:.2e} at omega3 != omega4, "
           f"totally symmetric value {sym_zero!r}")
    assert sym_zero == 0.0
    assert worst <= 1e-9, (
        "quadrupole closed form deviates from the SO(3) oracle at "
        f"omega3 != omega4 (worst rel dev {worst:.2e}); the tabulated "
        "frequency-block split is defective and deliberately not corrected; "
        "see `carscid verify` notes")


def test_criterion_05_dependence_relations():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        report_ = dependence_report(isotropic_invariants(random_tensor_set(rng)))
        for name in ("alpha", "gprime", "aquad"):
            worst = max(worst, report_[name]["relative"])
    ok = worst <= 1e-12
    report(5, "dependence relations on 100 random sets", ok,
           f"worst relative residual {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_06_natural_electric_consistency():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(20):
        ts = random_tensor_set(rng)
        iso = isotropic_invariants(ts)
        nat = natural_from_isotropic(iso, W3, W4)
        closed = averaged_electric(iso)
        worst = max(worst, abs(electric_from_natural(nat) - closed) / abs(closed))
    # exact rational evaluation on the isotropic input
    identity_alpha = {1: 81, 2: 27, 3: 9, 4: 27, 5: 9,
                      6: 9, 7: 3, 8: 3, 9: 27, 10: 9}
    a_naturals = {
        key: sum(w * identity_alpha[i] for i, w in row.items())
        for key, row in coef.NATURAL_A_FROM_ALPHA.items()}
    exact = sum(coef.ELECTRIC_NATURAL_FORM[key] * a_naturals[key]
                for key in coef.ELECTRIC_NATURAL_FORM)
    ok = worst <= 1e-12 and exact == Fraction(1, 2)
    report(6, "natural-invariant electric form", ok,
           f"worst rel dev {worst:.2e}, isotropic value {exact}")
    assert worst <= 1e-12
    assert exact == Fraction(1, 2)


def test_criterion_07_rational_collapse():
    checks = []
    for key, g_coef in coef.MAGNETIC_NATURAL_FORM.items():
        w3 = coef.QUADRUPOLE_NATURAL_FORM_PROBE.get(key)
        w4 = coef.QUADRUPOLE_NATURAL_FORM_ANTISTOKES.get(key, Fraction(0))
        if w3 is None:
            continue  # keys whose k naturals vanish structurally
        combined = (w3 - w4) / 3
        checks.append(combined == -g_coef / 3)
    spotcheck = (Fraction(7853, 92610) - Fraction(1, 54)) / 3 == Fraction(341, 15435)
    ok = all(checks) and spotcheck and len(checks) == 9
    report(7, "exact coefficient collapse at equal frequencies", ok,
           f"{sum(checks)}/9 coefficients, spot check {spotcheck}")
    assert len(checks) == 9
    assert all(checks)
    assert spotcheck


def test_criterion_08_verify_detects_magnetic_rendition(capsys):
    iso = isotropic_invariants(PropertyTensorSet(
        alpha34=I3, alpha12=I3, gprime34=I3, a34=np.zeros((3, 3, 3))))
    nat = natural_from_isotropic(iso, W3, W4)
    rendition = magnetic_from_natural(nat, C)
    closed = averaged_magnetic(iso, C)
    deviation = abs(rendition - closed) / abs(closed)
    expected = float(Fraction(13038, 8575)) / C
    code = cli_main(["verify", "--sets", "0", "--samples", "2000", "--seed", "8"])
    text = capsys.readouterr().out
    detected = deviation > 1e-9 and code == 2 and "FAIL" in text
    value_ok = abs(rendition - expected) <= 1e-12 * abs(expected)
    ok = detected and value_ok
    report(8, "verify detects the magnetic rendition deviation", ok,
           f"rendition*c = {rendition * C:.9f} vs 2, exit code {code}")
    assert deviation > 1e-9
    assert value_ok
    assert code == 2
    assert "FAIL" in text


def test_criterion_09_general_matches_collinear_specialization():
    rng = np.random.default_rng(1009)
    beams_r = BeamSet.collinear_vvv(0.10, 0.095, 0.11)
    beams_l = BeamSet.collinear_vvv(0.10, 0.095, 0.11, analyzer="L")
    worst = 0.0
    for _ in range(50):
        ts = PropertyTensorSet(
            alpha34=random_sym2(rng), alpha12=random_sym2(rng),
            gprime34=rng.normal(size=(3, 3)), a34=random_rank3_symlast(rng),
            gprime12=rng.normal(size=(3, 3)), a12=random_rank3_symlast(rng),
        ).rotated(haar_random_rotation(rng))
        for beams, special in ((beams_r, m_squared_vvvr), (beams_l, m_squared_vvvl)):
            general = m_squared_general(ts, beams, CTX)
            target = special(ts, beams, CTX)
            scale = max(abs(general), abs(target), 1e-30)
            worst = max(worst, abs(general - target) / scale)
    ok = worst <= 1e-12
    report(9, "generic evaluator matches collinear specialization", ok,
           f"worst rel dev {worst:.2e} over 50 sets x 2 analyzers")
    assert worst <= 1e-12


def test_criterion_10_real_polarizations_are_achiral():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        pol = np.array([v / np.linalg.norm(v)
                        for v in rng.normal(size=(4, 3))], dtype=complex)
        beams = BeamSet(omega=np.array([0.10, 0.095, 0.11, 0.115]),
                        khat=np.tile([0.0, 0.0, 1.0], (4, 1)),
                        pol=pol, photons=np.ones(4))
        a34, a12 = random_sym2(rng), random_sym2(rng)
        orientation = haar_random_rotation(rng)

        def value(gp34, aq34, gp12, aq12):
            ts = PropertyTensorSet(alpha34=a34, alpha12=a12, gprime34=gp34,
                                   a34=aq34, gprime12=gp12, a12=aq12
                                   ).rotated(orientation)
            return m_squared_general(ts, beams, CTX)

        base = value(np.zeros((3, 3)), np.zeros((3, 3, 3)),
                     np.zeros((3, 3)), np.zeros((3, 3, 3)))
        varied = value(rng.normal(size=(3, 3)), random_rank3_symlast(rng),
                       rng.normal(size=(3, 3)), random_rank3_symlast(rng))
        worst = max(worst, abs(base - varied) / max(abs(base), 1e-30))
    ok = worst <= 1e-12
    report(10, "real polarizations generate no chiral signal", ok,
           f"worst rel dev {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_11_delta_chirality_properties():
    rng = np.random.default_rng(1011)
    beams = BeamSet.collinear_vvv(0.10, 0.095, 0.11)
    worst = 0.0
    for _ in range(10):
        achiral = random_tensor_set(rng, chiral=False)
        terms0 = averaged_terms(achiral, beams.omega[2], beams.omega[3], C)
        worst = max(worst, abs(delta_from_averaged_terms(terms0)))

        ts = random_tensor_set(rng)
        delta = signal_for_tensors(ts, beams, CTX).delta
        mirror = signal_for_tensors(ts.enantiomer(), beams, CTX).delta
        worst = max(worst, abs(delta + mirror))

        lam = rng.uniform(0.5, 3.0)
        scaled = PropertyTensorSet(alpha34=lam * ts.alpha34,
                                   alpha12=lam * ts.alpha12,
                                   gprime34=lam * ts.gprime34,
                                   a34=lam * ts.a34)
        worst = max(worst,
                    abs(signal_for_tensors(scaled, beams, CTX).delta - delta))

        heavy = PhysicalContext()
        big = BeamSet.collinear_vvv(0.10, 0.095, 0.11, photons=(7, 3, 2, 5))
        worst = max(worst, abs(signal_for_tensors(ts, big, heavy).delta - delta))
    ok = worst <= 1e-12
    report(11, "delta chirality and invariance properties", ok,
           f"worst deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_12_orientation_average_end_to_end():
    rng = np.random.default_rng(1012)
    beams = BeamSet.collinear_vvv(0.10, 0.08, W3, omega4=W4)
    sample_rotations = [haar_random_rotation(rng) for _ in range(3)]
    worst_tie = 0.0
    worst = 0.0
    for _ in range(10):
        ts = random_tensor_set(rng)
        fe, fm, fq = rotated_bracket_terms(ts, W3, W4, C)

        def total_bracket(r):
            return fe(r) + fm(r) + fq(r)

        # the public evaluator and the batched bracket are the same quantity
        for rot in sample_rotations:
            pointwise = m_squared_vvvr(ts.rotated(rot), beams, CTX)
            batched = float(total_bracket(rot[np.newaxis])[0])
            worst_tie = max(worst_tie, abs(pointwise - batched)
                            / max(abs(pointwise), 1e-30))

        average = so3_quadrature_average(total_bracket).value
        terms = averaged_terms(ts, W3, W4, C)
        closed = terms.electric + terms.magnetic + terms.quadrupole
        worst = max(worst, abs(average - closed) / max(abs(average), abs(closed)))
    ok = worst_tie <= 1e-12 and worst <= 1e-9
    report(12, "orientation-averaged strength vs summed closed forms", ok,
           f"worst rel dev {worst:.2e} (bracket tie {worst_tie:.1e})")
    assert worst_tie <= 1e-12
    assert worst <= 1e-9, (
        "orientation-averaged collinear strength deviates from the summed "
        f"closed forms (worst rel dev {worst:.2e}); the quadrupole "
        "frequency-block split is defective at omega3 != omega4 and "
        "deliberately not corrected; see `carscid verify` notes")
