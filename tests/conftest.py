import os
import subprocess
import sys

import numpy as np
import pytest

import specherit
from specherit import (
    ConfigurationError,
    ShapeMismatchError,
    SimulationConfig,
    StudySpec,
    decompose,
    replicate_rng,
    simulate_cohort,
    study_records,
)

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


def var_quadform_oracle(
    H,
    lambdas,
    V,
    eta: float,
    sigma2: float,
    q: float,
    use_trace_bound: bool = False,
) -> float:
    """Exact conditional variance of the rotated quadratic form y' H y.

    Args:
        H: diagonal entries of the n x n diagonal weight matrix (1-D), or
            the full diagonal matrix itself.
        lambdas: kinship eigenvalues (length n).
        V: right singular vectors of the design: either the full N x N
            orthonormal matrix or its first n columns (N x n).
        eta, sigma2, q: model parameters (heritability, total variance,
            non-null proportion).
        use_trace_bound: replace the exact sum of squared diagonal entries
            of the mixing matrix by its trace upper bound.

    Returns:
        2 sigma2^2 Tr[H^2 ((1-eta) I + eta D)^2] plus the sparsity term
        3 sigma2^2 eta^2 (1/q - 1) sum_i M_ii^2 with
        M = V diag(D H, 0) V'.
    """
    if not 0.0 <= eta < 1.0:
        raise ConfigurationError(f"eta must be in [0, 1), got {eta}")
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"q must be in (0, 1], got {q}")
    lam = np.asarray(lambdas, dtype=np.float64)
    h = np.asarray(H, dtype=np.float64)
    if h.ndim == 2:
        if not np.allclose(h, np.diag(np.diag(h))):
            raise ShapeMismatchError("H must be diagonal")
        h = np.diag(h)
    if h.shape != lam.shape:
        raise ShapeMismatchError(f"H has shape {h.shape}, eigenvalues {lam.shape}")
    n = lam.size

    base = 2.0 * sigma2**2 * float(np.sum(h**2 * ((1.0 - eta) + eta * lam) ** 2))
    if q == 1.0:
        return base

    if use_trace_bound:
        diag_sq = float(np.sum((lam * h) ** 2))
    else:
        Vm = np.asarray(V, dtype=np.float64)
        if Vm.ndim != 2 or Vm.shape[1] < n:
            raise ShapeMismatchError(
                f"V must be N x N or N x n with n={n}, got {None if V is None else Vm.shape}"
            )
        V1 = Vm[:, :n]
        m_diag = (V1**2) @ (lam * h)
        diag_sq = float(np.sum(m_diag**2))
    return base + 3.0 * sigma2**2 * eta**2 * (1.0 / q - 1.0) * diag_sq


def raised(call):
    """The class and message of the error ``call()`` raises."""
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


def run_child(*args, input=None, **env):
    """Run a fresh interpreter on ``args`` with this checkout's package first
    on ``PYTHONPATH``, ``env`` added to the environment and ``input`` on its
    standard input."""
    src = os.path.dirname(os.path.dirname(specherit.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, **env, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          input=input)


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


# Every Monte-Carlo cell the acceptance criteria read, once each, as
# (eta_star, a, q, n, replicates, design). Cells with the same a, n,
# replicates and design share each replicate's design (a design group).
ACCEPTANCE_CELLS = (
    (0.5, 0.1, 1.0, 500, 300, "genotype"),
    (0.3, 0.1, 1.0, 500, 300, "genotype"),
    (0.3, 0.5, 1.0, 500, 300, "genotype"),
    (0.5, 0.5, 1.0, 500, 300, "genotype"),
    (0.7, 0.5, 0.5, 400, 300, "genotype"),
    (0.5, 0.1, 1.0, 500, 500, "gaussian"),
    (0.7, 0.5, 0.5, 400, 300, "gaussian"),
)

_cells = {}


def cell(eta_star, a, q, n, reps, design, seed=MASTER_SEED):
    """The replicate records of one Monte-Carlo cell, drawn once per session
    from ``seed`` by ``study_records`` and shared by every test that reads
    the cell.

    The cell has N = round(n / a) markers. Its first call runs the cell's
    whole design group, every listed cell that shares its a, n, replicates
    and design, as one study with ``a_grid=(a,)``, so each replicate's design
    is drawn and decomposed once for the group; an unlisted cell is a group
    of its own. The records are those of the cell's own one-cell study.
    """
    key = (eta_star, a, q, n, reps, design, seed)
    if key not in _cells:
        group = [c for c in ACCEPTANCE_CELLS if c[1] == a and c[3:] == (n, reps, design)]
        etas = sorted({eta_star, *(c[0] for c in group)})
        qs = sorted({q, *(c[2] for c in group)})
        base = SimulationConfig(n=n, N=round(n / a), eta_star=eta_star, q=q, seed=seed,
                                replicates=reps)
        spec = StudySpec(base=base, eta_grid=tuple(etas), a_grid=(a,), q_grid=tuple(qs),
                         design=design)
        records = study_records(spec)
        for k, c in enumerate(spec.cells()):
            _cells[c.eta_star, a, c.q, n, reps, design, seed] = tuple(
                records[k * reps : (k + 1) * reps]
            )
    records = _cells[key]
    for record in records:
        assert record.error == "", record.error
    return records


@pytest.fixture(scope="session")
def small_instance():
    """A well-behaved (lambdas, y_rot) pair reused across test modules."""
    return simulated_spectrum(seed=7, n=60, N=120, eta_star=0.4)
