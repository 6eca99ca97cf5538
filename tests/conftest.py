import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from carscid.scattering import PropertyTensorSet
from carscid.sos import MolecularModel, MomentTable, Roles

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def bench_workloads():
    """The module `bench/workloads.py`, the seeded benchmark models."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    # registered, since its dataclass looks its module up there
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def readme_states_model() -> dict:
    """The states-form model example of README.md, as a fresh dict."""
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    return json.loads(next(text for text in blocks if '"levels"' in text))


def random_sym2(rng):
    m = rng.normal(size=(3, 3))
    return 0.5 * (m + m.T)


def random_rank3_symlast(rng):
    a = rng.normal(size=(3, 3, 3))
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def totally_symmetric_rank3(rng, terms=3):
    """Sum of u (x) u (x) u outer products, with every entry computed from the
    index-sorted product so that all permutations of an index triple are
    bit-identical as stored (total symmetry survives validator round-trips
    exactly)."""
    a = np.zeros((3, 3, 3))
    for _ in range(terms):
        u = rng.normal(size=3)
        weight = rng.normal()
        for m in range(3):
            for n in range(3):
                for j in range(3):
                    lo, mid, hi = sorted((m, n, j))
                    a[m, n, j] += weight * ((u[lo] * u[mid]) * u[hi])
    return a


def random_tensor_set(rng, chiral=True):
    return PropertyTensorSet(
        alpha34=random_sym2(rng),
        alpha12=random_sym2(rng),
        gprime34=rng.normal(size=(3, 3)) if chiral else np.zeros((3, 3)),
        a34=random_rank3_symlast(rng) if chiral else np.zeros((3, 3, 3)),
    )


def manifold_consistent_model(rng, n_intermediates=3):
    """Random level model whose moment tables satisfy the closure structure
    under which both evaluation routes of every optical-activity tensor coincide:
    per intermediate, mu(t,ket) = lam * mu(bra,t), m(bra,t) = -m(t,ket)/lam,
    q(bra,t) = q(t,ket)/lam."""
    energies = {"g": 0.0, "s": 0.02, "f": 0.02}
    mu = MomentTable("electric-dipole", (3,), +1)
    m_imag = MomentTable("magnetic-dipole", (3,), -1)
    quad = MomentTable("electric-quadrupole", (3, 3), +1)
    probe, pump = [], []
    for j in range(n_intermediates):
        for bra, ket, bucket in (("f", "s", probe), ("s", "g", pump)):
            t = f"{bra}{ket}{j}"
            energies[t] = 1.5 + rng.uniform(0.0, 1.0)
            bucket.append(t)
            lam = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            p = rng.normal(size=3)
            q = rng.normal(size=3)
            qq = random_sym2(rng)
            mu.set(bra, t, p)
            mu.set(t, ket, lam * p)
            m_imag.set(t, ket, q)
            m_imag.set(bra, t, -q / lam)
            quad.set(t, ket, qq)
            quad.set(bra, t, qq / lam)
    roles = Roles(ground="g", excited="s", final="f",
                  pump_intermediates=tuple(pump),
                  probe_intermediates=tuple(probe))
    return MolecularModel(energies=energies, mu=mu, m_imag=m_imag,
                          quadrupole=quad, roles=roles)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
