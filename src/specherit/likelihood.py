"""Profile log-likelihood in the heritability and its Newton-Raphson maximizer.

With kinship eigenvalues lambda_i and rotated observations y_i, the
residual variance profiles out in closed form,

    sigma2(eta) = (1/n) sum_i y_i^2 / (eta (lambda_i - 1) + 1),

leaving the scalar objective

    L(eta) = -log sigma2(eta) - (1/n) sum_i log(eta (lambda_i - 1) + 1)

to maximize over eta in [0, 1 - delta]. The data enter only through
(lambda_i, w_i = y_i^2 / m) and m = mean(y^2): L = L_w - log m, where L_w
is L with w in place of y^2. ``_prepare`` validates and forms these once and
``_moments`` evaluates L_w and its analytic derivatives over a vector of
eta; the public functions wrap the two. The solver runs plain Newton
iterations from several starts, clamps iterates into the search interval,
applies the boundary reporting rule, and verifies the selected maximizer
against a coarse grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateDataError,
    NumericalFailureError,
    ShapeMismatchError,
    UnidentifiableModelError,
)

# Eigenvalue spreads below this are treated as "all lambda equal 1", where
# the objective is constant and eta is unidentifiable.
_FLAT_SPECTRUM_TOL = 1e-12

# Newton stops when a step moves eta by less than _TOL, or after _MAX_ITER
# steps.
_MAX_ITER = 20
_TOL = 1e-8

# The returned eta may score at most _VERIFY_TOL below the best point of a
# grid with spacing _VERIFY_GRID_STEP.
_VERIFY_GRID_STEP = 1e-3
_VERIFY_TOL = 1e-6

# ``_moments`` walks its etas in blocks of about this many (eta x n)
# elements, so each temporary stays in cache instead of costing a fresh
# page-faulted allocation per grid pass.
_BLOCK_ELEMENTS = 1 << 15


def _prepare(lambdas, y_rot) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate the spectral data once and reduce y to scale-free weights.

    Returns ``lam``, ``w = u^2 / mean(u^2)`` with ``u = y / max|y|``, and
    ``m = mean(y^2)``. Dividing by max|y| before squaring keeps ``w`` clear
    of overflow and of wholesale underflow at any scale of y; ``m`` leaves
    the float range only when mean(y^2) itself does.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    y = np.asarray(y_rot, dtype=np.float64)
    if lam.ndim != 1 or y.ndim != 1 or lam.size != y.size:
        raise ShapeMismatchError(
            f"eigenvalues ({lam.shape}) and rotated observations ({y.shape}) disagree"
        )
    if not (np.isfinite(lam).all() and np.isfinite(y).all()):
        raise DataError("eigenvalues and rotated observations must be finite")
    s = float(np.max(np.abs(y), initial=0.0))
    if s == 0.0:
        raise DegenerateDataError("rotated observations are identically zero")
    u2 = (y / s) ** 2
    mean_u2 = float(np.mean(u2))
    return lam, u2 / mean_u2, s * (s * mean_u2)


def _moments(etas, lam: np.ndarray, w: np.ndarray, order: int) -> list[np.ndarray]:
    """Scale-free profile quantities at each eta, up to derivative ``order``.

    Returns ``[mean(w / d), L_w, L_w', L_w'']`` cut after entry
    ``order + 1``, each a vector over ``etas``, with d = eta (lam - 1) + 1.
    Rows are evaluated in blocks of ``_BLOCK_ELEMENTS // n`` etas; every
    row is computed and reduced on its own, so the blocking changes no bit.
    """
    etas = np.asarray(etas, dtype=np.float64)
    inside = (etas >= 0.0) & (etas < 1.0)
    if not inside.all():
        raise ConfigurationError(f"eta must be in [0, 1), got {etas[~inside][0]}")
    c = lam - 1.0
    # d >= min(1 - eta, 1) > 0 for lambda >= 0 and eta < 1. Each d_i is
    # monotone in eta, so the extreme etas bound every row of every block.
    if etas.size and (np.array([etas.min(), etas.max()])[:, None] * c + 1.0).min() <= 0.0:
        raise NumericalFailureError(f"non-positive denominator: min eigenvalue {lam.min()}")
    rows = max(1, _BLOCK_ELEMENTS // lam.size)
    if etas.size <= rows:
        return _moments_block(etas, c, w, order)
    blocks = [_moments_block(etas[i : i + rows], c, w, order) for i in range(0, etas.size, rows)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _moments_block(etas: np.ndarray, c: np.ndarray, w: np.ndarray, order: int) -> list[np.ndarray]:
    d = etas[:, None] * c + 1.0
    # No (etas x n) temporary outlives its reduction on the order-0 grid
    # pass: holding one more there makes the pass several times slower.
    s0 = (w / d).mean(axis=1)
    out = [s0, -np.log(s0) - np.log(d).mean(axis=1)]
    if order >= 1:
        h = c / d
        r = w / d * h
        t = r.mean(axis=1) / s0
        out.append(t - h.mean(axis=1))
        if order >= 2:
            r *= h
            out.append(-2.0 * r.mean(axis=1) / s0 + t**2 + (h * h).mean(axis=1))
    return out


def _sigma2(eta: float, lam: np.ndarray, w: np.ndarray, m: float) -> float:
    return m * float(_moments([eta], lam, w, 0)[0][0])


def g(eta: float, lam):
    """Eigenvalue sensitivity kernel (lam - 1) / (eta (lam - 1) + 1).

    This is d/d_eta log(eta (lam - 1) + 1); its empirical variance over the
    spectrum drives every standard-error formula in the package.
    """
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise ConfigurationError(f"eta must be in [0, 1), got {eta}")
    c = np.asarray(lam, dtype=np.float64) - 1.0
    d = eta * c + 1.0
    if np.any(d <= 0.0):
        raise NumericalFailureError(f"non-positive denominator at eta={eta}")
    result = c / d
    return float(result) if result.ndim == 0 else result


def profile_sigma2(eta: float, lambdas, y_rot) -> float:
    """Closed-form residual-variance profile at a given heritability."""
    return _sigma2(float(eta), *_prepare(lambdas, y_rot))


def loglik(eta: float, lambdas, y_rot) -> float:
    """Profile log-likelihood (up to constants) at eta."""
    lam, w, m = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 0)[1][0]) - math.log(m)


def loglik_grid(etas: np.ndarray, lambdas, y_rot) -> np.ndarray:
    """Vectorized profile log-likelihood over a grid of eta values."""
    lam, w, m = _prepare(lambdas, y_rot)
    return _moments(etas, lam, w, 0)[1] - math.log(m)


def dloglik(eta: float, lambdas, y_rot) -> float:
    """Analytic first derivative of the profile log-likelihood."""
    lam, w, _ = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 1)[2][0])


def d2loglik(eta: float, lambdas, y_rot) -> float:
    """Analytic second derivative of the profile log-likelihood."""
    lam, w, _ = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 2)[3][0])


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver settings.

    ``delta`` bounds the search interval [0, 1 - delta]; ``inits`` are the
    multi-start initializations; fits pinned at the upper boundary report
    ``upper = 1 - delta``. The iteration budget (20 steps), step tolerance
    (1e-8) and verification grid (step 1e-3, tolerance 1e-6) are fixed.
    """

    delta: float = 0.01
    inits: tuple[float, ...] = (0.1, 0.5, 0.9)

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ConfigurationError(f"delta must be in (0, 0.5), got {self.delta}")
        upper = 1.0 - self.delta
        if not self.inits:
            raise ConfigurationError("at least one initialization is required")
        for e0 in self.inits:
            if not 0.0 < e0 < upper:
                raise ConfigurationError(
                    f"initialization {e0} outside the open interval (0, {upper})"
                )

    @property
    def upper(self) -> float:
        return 1.0 - self.delta


@dataclass
class SolverResult:
    """Outcome of a multi-start Newton maximization."""

    eta_hat: float
    sigma2_hat: float
    iterations_per_start: tuple[int, ...]
    converged: tuple[bool, ...]
    chosen_start: int
    clamped: bool

    def summary(self) -> dict:
        return {
            "eta_hat": self.eta_hat,
            "sigma2_hat": self.sigma2_hat,
            "iterations_per_start": list(self.iterations_per_start),
            "converged": list(self.converged),
            "chosen_start": self.chosen_start,
            "clamped": self.clamped,
        }


def _grid_argmax(upper: float, step: float, lam, w) -> tuple[float, float]:
    """Best point of a uniform grid on [0, upper] and its L_w; ties go to the lowest eta."""
    count = int(np.floor(upper / step + 1e-9))
    grid = np.linspace(0.0, count * step, count + 1)
    if upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    scores = _moments(grid, lam, w, 0)[1]
    best = int(np.argmax(scores))
    return float(grid[best]), float(scores[best])


def _check_identifiable(lam: np.ndarray) -> None:
    if np.all(np.abs(lam - 1.0) < _FLAT_SPECTRUM_TOL):
        raise UnidentifiableModelError(
            "all kinship eigenvalues equal 1: the likelihood is constant in eta"
        )


def _newton(starts, upper: float, lam, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton from every start in lockstep, one ``_moments`` call per step.

    Returns each start's final eta, step count and convergence flag. A
    start stops on a step below _TOL (converged), on a zero or non-finite
    L'' or step (failed, eta kept), or after _MAX_ITER steps.
    """
    eta = np.array(starts, dtype=np.float64)
    steps = np.zeros(eta.size, dtype=np.int64)
    converged = np.zeros(eta.size, dtype=bool)
    active = np.arange(eta.size)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        _, _, d1, d2 = _moments(eta[active], lam, w, 2)
        with np.errstate(all="ignore"):
            step = d1 / d2
        ok = np.isfinite(d2) & (d2 != 0.0) & np.isfinite(step)
        active, step = active[ok], step[ok]
        new = np.clip(eta[active] - step, 0.0, upper)
        steps[active] += 1
        done = np.abs(new - eta[active]) < _TOL
        eta[active] = new
        converged[active[done]] = True
        active = active[~done]
    return eta, steps, converged


def newton_estimate(lambdas, y_rot, cfg: SolverConfig | None = None) -> SolverResult:
    """Maximize the profile log-likelihood by multi-start Newton-Raphson.

    Each start iterates eta <- eta - L'(eta)/L''(eta) with iterates clamped
    into [0, 1 - delta], stopping on a step below 1e-8 or after 20 steps;
    all starts step in lockstep. A run pinned at the upper boundary reports
    1 - delta with ``clamped=True``. The candidate farthest from the
    boundaries (largest min(eta, 1 - delta - eta)), then with the higher
    log-likelihood, wins; starts whose eta agree with it within 1e-8 tie,
    and the lowest start index among them is chosen. If the winner scores
    more than 1e-6 below the best point of a grid of step 1e-3, Newton
    restarts there and the better of the restart and the grid point is
    returned with ``chosen_start=-1``.
    """
    cfg = cfg or SolverConfig()
    lam, w, m = _prepare(lambdas, y_rot)
    _check_identifiable(lam)

    upper = cfg.upper
    boundary_tol = 1e-12

    candidates, iterations, converged = _newton(cfg.inits, upper, lam, w)

    # Boundary-pinned runs report the upper end of the search interval.
    run_clamped = (candidates >= upper - boundary_tol).tolist()
    reported = np.where(run_clamped, upper, candidates).tolist()
    objective = _moments(reported, lam, w, 0)[1]
    if not np.isfinite(objective).any():
        raise NumericalFailureError("no start produced a finite log-likelihood")

    # Converged starts differ only in round-off, hence the tie within _TOL.
    starts = range(len(reported))
    best = max(starts, key=lambda s: (min(reported[s], upper - reported[s]), objective[s]))
    chosen = min(s for s in starts if abs(reported[s] - reported[best]) <= _TOL)
    eta_hat = reported[chosen]
    clamped = run_clamped[chosen]

    # Post-hoc verification: the return may not sit measurably below the
    # likelihood anywhere on a coarse grid. On failure, restart Newton from
    # the grid argmax and keep whichever of the two scores higher.
    grid_eta, grid_score = _grid_argmax(upper, _VERIFY_GRID_STEP, lam, w)
    if objective[chosen] < grid_score - _VERIFY_TOL:
        polished = float(_newton([grid_eta], upper, lam, w)[0][0])
        polished_score = _moments([polished], lam, w, 0)[1][0]
        eta_hat = polished if polished_score >= grid_score else grid_eta
        clamped = eta_hat >= upper - boundary_tol
        if clamped:
            eta_hat = upper
        chosen = -1

    return SolverResult(
        eta_hat=eta_hat,
        sigma2_hat=_sigma2(eta_hat, lam, w, m),
        iterations_per_start=tuple(iterations.tolist()),
        converged=tuple(converged.tolist()),
        chosen_start=chosen,
        clamped=bool(clamped),
    )


def grid_oracle(lambdas, y_rot, grid_step: float, delta: float = 0.01) -> float:
    """Brute-force argmax of the profile log-likelihood over a uniform grid.

    Ties resolve to the lowest eta. Deliberately independent of the Newton
    path so the two can cross-validate each other.
    """
    if not 0.0 < grid_step <= 0.01:
        raise ConfigurationError(f"grid_step must be in (0, 0.01], got {grid_step}")
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must be in (0, 0.5), got {delta}")
    lam, w, _ = _prepare(lambdas, y_rot)
    return _grid_argmax(1.0 - delta, grid_step, lam, w)[0]
