import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

import specherit
from specherit import SimulationConfig, decompose, replicate_rng, run_replicate, simulate_cohort

MASTER_SEED = 12345


def riemann_mp(a, f, points=10**7):
    """Independent Marchenko-Pastur integral oracle: midpoint Riemann sum.

    Summed in s = sqrt(lambda), where the bulk density becomes
    sqrt((a_plus - s^2)(s^2 - a_minus)) / (pi a s) * s ds and stays bounded
    even when a = 1 puts the support edge at zero. The atom at zero (a > 1)
    is added analytically.
    """
    s_lo, s_hi = abs(1.0 - np.sqrt(a)), 1.0 + np.sqrt(a)
    edges = np.linspace(s_lo, s_hi, points + 1)
    s = 0.5 * (edges[1:] + edges[:-1])
    lam = s**2
    a_minus, a_plus = (1.0 - np.sqrt(a)) ** 2, (1.0 + np.sqrt(a)) ** 2
    density = np.sqrt(np.maximum((a_plus - lam) * (lam - a_minus), 0.0)) / (2.0 * np.pi * a * lam)
    weights = density * 2.0 * s * (s_hi - s_lo) / points
    atom = max(0.0, 1.0 - 1.0 / a)
    return float(np.dot(f(lam), weights) + atom * f(np.float64(0.0)))


def run_child(*args, **env):
    """Run a fresh interpreter on ``args`` with this checkout's package first
    on ``PYTHONPATH`` and ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(specherit.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, **env, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def seeded_spectrum(seed, n, eta):
    """Uniform eigenvalues and matching observations, drawn without BLAS, so
    a fit on them is the same bits on any machine."""
    rng = replicate_rng(seed)
    lam = rng.uniform(0.0, 3.0, n)
    y = rng.standard_normal(n) * np.sqrt(eta * lam + 1.0 - eta)
    return lam, y


def simulated_spectrum(seed, n, N, eta_star, q=1.0, design="genotype"):
    """Eigenvalues and rotated observations of one synthetic replicate."""
    config = SimulationConfig(n=n, N=N, eta_star=eta_star, q=q, seed=seed)
    cohort = simulate_cohort(config, replicate=0, design=design)
    spec = decompose(cohort.Z, cohort.Y)
    return spec.lambdas, spec.y_rot


@lru_cache(maxsize=None)
def cell(eta_star, a, q, n, reps, design):
    """The replicate records of one Monte-Carlo cell, drawn once per session
    from MASTER_SEED and shared by every test that reads the cell."""
    records = []
    for rep in range(reps):
        record = run_replicate(
            SimulationConfig(n=n, N=round(n / a), eta_star=eta_star, q=q, seed=MASTER_SEED),
            rep, design=design,
        )
        assert record.error == "", record.error
        records.append(record)
    return tuple(records)


@pytest.fixture(scope="session")
def small_instance():
    """A well-behaved (lambdas, y_rot) pair reused across test modules."""
    return simulated_spectrum(seed=7, n=60, N=120, eta_star=0.4)
