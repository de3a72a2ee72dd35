"""Profile log-likelihood in the heritability and its Newton-Raphson maximizer.

With kinship eigenvalues lambda_i and rotated observations y_i, the
residual variance profiles out in closed form,

    sigma2(eta) = (1/n) sum_i y_i^2 / (eta (lambda_i - 1) + 1),

leaving the scalar objective

    L(eta) = -log sigma2(eta) - (1/n) sum_i log(eta (lambda_i - 1) + 1)

to maximize over eta in [0, 1 - delta]. The data enter only through
(lambda_i, w_i = y_i^2 / m) and m = mean(y^2): L = L_w - log m, where L_w
is L with w in place of y^2. ``_prepare`` validates and forms these once and
``_moments`` checks a vector of eta and evaluates L_w and its analytic
derivatives over it; the public functions wrap the two. The solver checks
the search interval once and then calls the unchecked kernels: Newton
steps evaluate only L_w' and L_w'' (``_newton_block``), everything else
the full rows (``_rows``). It runs plain Newton iterations from several
starts, clamps iterates into the search interval, applies the boundary
reporting rule, and verifies the selected maximizer against a grid. The
grid scan is bounded: s0 = mean(w / d) is convex and mean(log d) concave in
eta, so tangents of the one and the chord of the other bound L_w on each
interval between scored points. The scan scores a coarse level of points,
then a finer level inside the intervals whose bound reaches the best score,
then in full only the finer intervals that still reach it. The solver
starts the best score at its own optimum plus the verification tolerance,
so only grid points that could override Newton are looked for. The module
keeps no state.
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

# ``_rows`` walks its etas in blocks of about this many (eta x n)
# elements, so each temporary stays in cache instead of costing a fresh
# page-faulted allocation per grid pass.
_BLOCK_ELEMENTS = 1 << 15

# The bounded grid scan scores every _TOP_STRIDE-th grid point (and the
# last) first, then every _MID_STRIDE-th point inside the intervals that can
# still win, then the points between those only where they can win.
_TOP_STRIDE = 128
_MID_STRIDE = 16


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

    Returns ``[mean(w / d), mean(log d), L_w]``, then for ``order >= 1``
    ``t = mean(w (lam - 1) / d^2) / mean(w / d)`` and L_w', then for
    ``order >= 2`` L_w'', each a vector over ``etas``, with
    d = eta (lam - 1) + 1. Every row is computed and reduced on its own, so
    neither the blocking nor the choice of etas changes a row's bits.
    """
    etas = np.asarray(etas, dtype=np.float64)
    inside = (etas >= 0.0) & (etas < 1.0)
    if not inside.all():
        raise ConfigurationError(f"eta must be in [0, 1), got {etas[~inside][0]}")
    c = lam - 1.0
    if etas.size:
        _check_denominators(etas.max(), c, lam)
    return _rows(etas, c, w, order)


def _check_denominators(eta_max: float, c: np.ndarray, lam: np.ndarray) -> None:
    """Raise unless d = eta c + 1 is positive for every eta in [0, eta_max].

    d >= min(1 - eta, 1) > 0 for lambda >= 0 and eta < 1. Each d_i is 1 at
    eta = 0 and monotone in eta, so checking eta_max covers the interval.
    """
    if (eta_max * c + 1.0).min() <= 0.0:
        raise NumericalFailureError(f"non-positive denominator: min eigenvalue {lam.min()}")


def _rows(etas: np.ndarray, c: np.ndarray, w: np.ndarray, order: int) -> list[np.ndarray]:
    """``_moments`` with ``c = lam - 1``, unchecked, in blocks of ``_BLOCK_ELEMENTS // n`` etas."""
    rows = max(1, _BLOCK_ELEMENTS // c.size)
    if etas.size <= rows:
        return _moments_block(etas, c, w, order)
    blocks = [_moments_block(etas[i : i + rows], c, w, order) for i in range(0, etas.size, rows)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _mean(x: np.ndarray) -> np.ndarray:
    # The bits of x.mean(axis=1), without its dispatch overhead.
    return np.add.reduce(x, axis=1) / x.shape[1]


def _moments_block(etas: np.ndarray, c: np.ndarray, w: np.ndarray, order: int) -> list[np.ndarray]:
    """``_moments`` on one block, unchecked: ``c = lam - 1``."""
    d = np.multiply.outer(etas, c)
    d += 1.0
    # The order-0 grid pass holds at most two (etas x n) arrays at once:
    # holding one more there makes the pass several times slower.
    logdet = _mean(np.log(d))
    r = w / d
    s0 = _mean(r)
    out = [s0, logdet, -np.log(s0) - logdet]
    if order >= 1:
        out += _derivatives(d, r, s0, c, order)
    return out


def _newton_block(etas: np.ndarray, c: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """L_w' and L_w'' at each eta: the bits of ``_moments(etas, lam, w, 2)[4:]``.

    The caller has checked eta and the denominators; the rows of log d and
    L_w, which a Newton step never reads, are skipped.
    """
    d = np.multiply.outer(etas, c)
    d += 1.0
    r = w / d
    return _derivatives(d, r, _mean(r), c, 2)[1:]


def _derivatives(d, r, s0, c, order: int) -> list[np.ndarray]:
    """``[t, L_w']`` and, for ``order >= 2``, L_w'', from d, r = w / d and
    s0 = mean(r); r is overwritten."""
    h = c / d
    r *= h
    t = _mean(r) / s0
    out = [t, t - _mean(h)]
    if order >= 2:
        r *= h
        h *= h
        out.append(-2.0 * _mean(r) / s0 + t**2 + _mean(h))
    return out


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
    lam, w, m = _prepare(lambdas, y_rot)
    return m * float(_moments([float(eta)], lam, w, 0)[0][0])


def loglik(eta: float, lambdas, y_rot) -> float:
    """Profile log-likelihood (up to constants) at eta."""
    lam, w, m = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 0)[2][0]) - math.log(m)


def loglik_grid(etas: np.ndarray, lambdas, y_rot) -> np.ndarray:
    """Vectorized profile log-likelihood over a grid of eta values."""
    lam, w, m = _prepare(lambdas, y_rot)
    return _moments(etas, lam, w, 0)[2] - math.log(m)


def dloglik(eta: float, lambdas, y_rot) -> float:
    """Analytic first derivative of the profile log-likelihood."""
    lam, w, _ = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 1)[4][0])


def d2loglik(eta: float, lambdas, y_rot) -> float:
    """Analytic second derivative of the profile log-likelihood."""
    lam, w, _ = _prepare(lambdas, y_rot)
    return float(_moments([float(eta)], lam, w, 2)[5][0])


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


def _interval_bounds(x, s0, ld, score, t) -> np.ndarray:
    """Upper bound of L_w on each interval [a, b] between neighbouring knots ``x``.

    s0 = mean(w / d) is convex in eta, so it lies above T, the larger of its
    tangents at a and b, and mean(log d) is concave, so it lies above its
    chord C. Hence L_w <= -log T - C, which is convex on each piece of T
    and peaks at a, b or where the tangents cross.
    """
    slope = -t * s0
    span = np.diff(x)
    with np.errstate(all="ignore"):
        # Where the tangents at a and b cross, as a fraction of [a, b].
        u = (s0[1:] - s0[:-1] - slope[1:] * span) / ((slope[:-1] - slope[1:]) * span)
        u = np.fmin(np.fmax(u, 0.0), 1.0)  # nan (0 / 0) -> 0
        low = s0[:-1] + slope[:-1] * span * u
        cross = np.where(low > 0.0, -np.log(low) - (ld[:-1] + (ld[1:] - ld[:-1]) * u), np.inf)
    return np.maximum(np.maximum(score[:-1], score[1:]), cross)


def _grid_argmax(
    upper: float, step: float, lam, w, floor: float = -math.inf
) -> tuple[float, float]:
    """Best point of a uniform grid on [0, upper] and its L_w; ties go to the lowest eta.

    Only rows that can reach ``floor`` matter: when the best row scores at
    least ``floor``, the result equals a full scan's bits; otherwise the
    returned score is below ``floor`` and its eta is arbitrary. The scan
    scores every _TOP_STRIDE-th point and the last at order 1, then every
    _MID_STRIDE-th point inside the intervals whose ``_interval_bounds``
    reach the best score (or ``floor``, if higher) less 1e-9, then the
    remaining points of the finer intervals in decreasing bound until the
    next bound falls below that mark. Every row that could win or tie is
    scored, so ``floor=-inf`` gives the exhaustive argmax.
    """
    count = int(np.floor(upper / step + 1e-9))
    grid = np.linspace(0.0, count * step, count + 1)
    if upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    c = lam - 1.0
    _check_denominators(upper, c, lam)
    last = grid.size - 1
    knots = np.append(np.arange(0, last, _TOP_STRIDE), last)
    rows = _rows(grid[knots], c, w, 1)[:4]
    best = max(floor, float(rows[2].max()))
    bound = _interval_bounds(grid[knots], *rows)
    mid = [np.arange(a + _MID_STRIDE, b, _MID_STRIDE)
           for a, b, top in zip(knots[:-1], knots[1:], bound) if top >= best - 1e-9]
    mid = np.concatenate([knots[:0], *mid])
    if mid.size:
        more = _rows(grid[mid], c, w, 1)[:4]
        best = max(best, float(more[2].max()))
        merged = np.concatenate([knots, mid])
        order = np.argsort(merged)
        knots = merged[order]
        rows = [np.concatenate(pair)[order] for pair in zip(rows, more)]
        bound = _interval_bounds(grid[knots], *rows)
    scores = np.full(grid.size, -np.inf)
    scores[knots] = rows[2]
    for j in np.argsort(-bound, kind="stable"):
        if bound[j] < best - 1e-9:
            break
        if knots[j] + 1 < knots[j + 1]:
            inner = _rows(grid[knots[j] + 1 : knots[j + 1]], c, w, 0)[2]
            scores[knots[j] + 1 : knots[j + 1]] = inner
            best = max(best, float(inner.max()))
    i = int(np.argmax(scores))
    return float(grid[i]), float(scores[i])


def _newton(starts, upper: float, c, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton from every start in lockstep, one ``_newton_block`` pass per step.

    ``c = lam - 1`` must give positive denominators at ``upper``: iterates
    are clipped into [0, upper] and each d_i is monotone in eta, so that
    one check covers every step. Returns each start's final eta, step count
    and convergence flag. A start stops on a step below _TOL (converged),
    on a zero or non-finite L'' or step (failed, eta kept), or after
    _MAX_ITER steps.
    """
    eta = np.array(starts, dtype=np.float64)
    steps = np.zeros(eta.size, dtype=np.int64)
    converged = np.zeros(eta.size, dtype=bool)
    active = np.arange(eta.size)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        d1, d2 = _newton_block(eta[active], c, w)
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
    returned with ``chosen_start=-1``. The grid scan is floored at the
    winner's score plus 1e-6, so it scores only the rows that could
    trigger that override.
    """
    cfg = cfg or SolverConfig()
    lam, w, m = _prepare(lambdas, y_rot)
    c = lam - 1.0
    if np.all(np.abs(c) < _FLAT_SPECTRUM_TOL):
        raise UnidentifiableModelError(
            "all kinship eigenvalues equal 1: the likelihood is constant in eta"
        )

    upper = cfg.upper
    boundary_tol = 1e-12
    # Every eta the solve evaluates lies in [0, upper].
    _check_denominators(upper, c, lam)

    candidates, iterations, converged = _newton(cfg.inits, upper, c, w)

    # Boundary-pinned runs report the upper end of the search interval.
    pinned = candidates >= upper - boundary_tol
    reported = np.where(pinned, upper, candidates)
    objective = _rows(reported, c, w, 0)[2]
    run_clamped, reported = pinned.tolist(), reported.tolist()
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
    # the grid argmax and keep whichever of the two scores higher. Any grid
    # score s with objective < s - _VERIFY_TOL is at least the floor, so
    # the floored scan returns the exhaustive argmax whenever it matters.
    grid_eta, grid_score = _grid_argmax(
        upper, _VERIFY_GRID_STEP, lam, w, floor=objective[chosen] + _VERIFY_TOL
    )
    if objective[chosen] < grid_score - _VERIFY_TOL:
        polished = float(_newton([grid_eta], upper, c, w)[0][0])
        polished_score = _rows(np.array([polished]), c, w, 0)[2][0]
        eta_hat = polished if polished_score >= grid_score else grid_eta
        clamped = eta_hat >= upper - boundary_tol
        if clamped:
            eta_hat = upper
        chosen = -1

    return SolverResult(
        eta_hat=eta_hat,
        sigma2_hat=m * float(_rows(np.array([eta_hat]), c, w, 0)[0][0]),
        iterations_per_start=tuple(iterations.tolist()),
        converged=tuple(converged.tolist()),
        chosen_start=chosen,
        clamped=bool(clamped),
    )


def grid_oracle(lambdas, y_rot, grid_step: float, delta: float = 0.01) -> float:
    """Argmax of the profile log-likelihood over a uniform grid.

    Ties resolve to the lowest eta; the bounded scan, run with no floor,
    returns the same point as scoring every grid row. Independent of the
    Newton iterations only: the solver's verification step runs the same
    ``_grid_argmax`` scan, floored at its own optimum.
    """
    if not 0.0 < grid_step <= 0.01:
        raise ConfigurationError(f"grid_step must be in (0, 0.01], got {grid_step}")
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must be in (0, 0.5), got {delta}")
    lam, w, _ = _prepare(lambdas, y_rot)
    return _grid_argmax(1.0 - delta, grid_step, lam, w)[0]
