"""Profile log-likelihood in the heritability and its certified maximizer.

With kinship eigenvalues lambda_i and rotated observations y_i, the
residual variance profiles out in closed form,

    sigma2(eta) = (1/n) sum_i y_i^2 / (eta (lambda_i - 1) + 1),

leaving the scalar objective

    L(eta) = -log sigma2(eta) - (1/n) sum_i log(eta (lambda_i - 1) + 1)

to maximize over eta in [0, 1 - delta]. The data enter only through
(lambda_i, w_i = y_i^2 / m) and m = mean(y^2): L = L_w - log m, where L_w
is L with w in place of y^2. Each input rule is one function, and every
public entry goes through it: ``_eigenvalues`` (a non-empty finite vector),
``_pair`` (those, and y of their shape, finite and not all zero) and
``_check_etas`` (every eta in [0, 1), every denominator positive).
``_prepare`` forms w and m from a checked pair, and ``_profile`` checks a
vector of eta against it and evaluates L_w and its analytic derivatives
over it; the public functions are one call on it. The solver checks
the search interval once and then calls the unchecked kernels: Newton
steps evaluate only L_w' and L_w'' (``_newton_block``), everything else
the table rows (``_rows``). Both kernels put every spectral term of a
pass in one buffer and reduce it in one call (``_means``), so a pass
makes the same few numpy calls for one eta as for twenty. The solver polishes
first and certifies once: it scores 9 knots with L_w'', Newton runs from
the best one to p, its first step read from the knot's row, one pass
scores p and a ladder around it, and branch and bound (Shubert's method
with a sharper bound) covers the rest: s0 = mean(w / d) is convex and
mean(log d) concave in eta, so tangents of the one and the chord of the
other bound L_w on each interval between scored points
(``_interval_bounds``). Intervals whose bound exceeds the best score by
more than _GAP_TOL are bisected, and the largest bound certifies the
answer. A best knot where L_w'' >= 0 starts no Newton run, since Newton
would head for a minimum there; branch and bound finds the peak and a
second run polishes it. The module keeps no state.

The weights may also sit on nodes other than the eigenvalues: a Lanczos
quadrature rule for y's spectral measure (``spectral._measures``), which
``_estimate`` solves on. Then the w terms of a pass run over the nodes and
the eigenvalue terms over the eigenvalues, in two buffers (``_node_means``);
with the eigenvalues as nodes, as in every public entry, a pass is the one
buffer above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    NumericalFailureError,
    ShapeMismatchError,
    UnidentifiableModelError,
    _check_delta,
    _check_number,
)

# Eigenvalue spreads below this are treated as "all lambda equal 1", where
# the objective is constant and eta is unidentifiable.
_FLAT_SPECTRUM_TOL = 1e-12

# Newton stops when a step moves eta by less than _TOL, or after _MAX_ITER
# steps.
_MAX_ITER = 20
_TOL = 1e-8

# The solver scores _KNOTS equally spaced points, then Newton's optimum p
# and p + h _LADDER (h the knot spacing), and bisects until no interval's
# bound exceeds the best score by more than _GAP_TOL, for at most
# _MAX_ROUNDS rounds: by then intervals next to the best are at float spacing.
_KNOTS = 9
_LADDER = np.array([0.0, *(s * 2.5**-k for k in range(1, 7) for s in (1.0, -1.0))])
_GAP_TOL = 1e-6
_MAX_ROUNDS = 50

# ``_rows`` walks its etas in blocks of about this many (eta x n)
# elements, so each block's buffer (two to six terms of this size) stays in
# cache instead of costing a fresh page-faulted allocation per grid pass.
_BLOCK_ELEMENTS = 1 << 15


def _eigenvalues(lambdas) -> np.ndarray:
    """The eigenvalues as a float vector, checked to be 1-D, non-empty and finite."""
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ShapeMismatchError(f"eigenvalues must be a non-empty vector, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise DataError("eigenvalues must be finite")
    return lam


def _pair(lambdas, y_rot) -> tuple[np.ndarray, np.ndarray, float]:
    """``_eigenvalues``, then y of their shape, finite and not all zero: ``lam, y, max|y|``."""
    lam = _eigenvalues(lambdas)
    y = np.asarray(y_rot, dtype=np.float64)
    if y.shape != lam.shape:
        raise ShapeMismatchError(
            f"rotated observations {y.shape} and eigenvalues {lam.shape} differ in shape"
        )
    return lam, y, _scale(y)


def _scale(y: np.ndarray) -> float:
    """max|y| of observations that are finite and not all zero."""
    s = float(np.maximum.reduce(np.abs(y), initial=0.0))  # inf or nan unless y is finite
    if not math.isfinite(s):
        raise DataError("rotated observations must be finite")
    if s == 0.0:
        raise DataError("rotated observations are identically zero")
    return s


def _prepare(lambdas, y_rot) -> tuple[np.ndarray, np.ndarray, float]:
    """``_pair``, with y reduced to ``_weights``: ``lam, w, m``."""
    lam, y, s = _pair(lambdas, y_rot)
    return lam, *_weights(y, s, lam.size)


def _weights(y: np.ndarray, s: float, n: int) -> tuple[np.ndarray, float]:
    """Scale-free weights of observations y with max|y| = s, averaged over n.

    Returns ``w = u^2 / (sum(u^2) / n)`` with ``u = y / s``, and
    ``m = sum(y^2) / n``. Dividing by max|y| before squaring keeps ``w`` clear
    of overflow and of wholesale underflow at any scale of y; ``m`` leaves
    the float range only when sum(y^2) / n itself does. For y of n rotated
    observations these are ``u^2 / mean(u^2)`` and mean(y^2); for a
    quadrature rule's amplitudes, n counts the eigenvalues, not the nodes.
    """
    u2 = (y / s) ** 2
    mean_u2 = float(np.add.reduce(u2)) / n  # the bits of np.mean when n = y.size
    u2 /= mean_u2
    return u2, s * (s * mean_u2)


def _check_etas(etas, c) -> np.ndarray:
    """The etas as a float array, checked to lie in [0, 1) with d = eta c + 1
    positive for each eta in [0, max(etas)] and each c = lambda - 1.

    d >= min(1 - eta, 1) > 0 for lambda >= 0 and eta < 1. Each d_i is 1 at
    eta = 0 and monotone in eta, and its rounded value is monotone in c_i,
    so the least c at the largest eta decides for every eta and every c.
    """
    etas = np.asarray(etas, dtype=np.float64)
    eta_max = etas.max(initial=0.0)  # nan if any eta is
    if not (etas.min(initial=0.0) >= 0.0 and eta_max < 1.0):
        outside = etas[~((etas >= 0.0) & (etas < 1.0))]
        raise ConfigurationError(f"eta must be in [0, 1), got {outside[0]}")
    c_min = c.min(initial=np.inf)
    if eta_max * c_min + 1.0 <= 0.0:
        raise NumericalFailureError(
            f"non-positive denominator at eta={eta_max}: min eigenvalue - 1 is {c_min}"
        )
    return etas


def _profile(etas, lambdas, y_rot, order: int) -> tuple[np.ndarray, float]:
    """The ``_rows`` table of ``etas`` for the checked pair, and m = mean(y^2)."""
    lam, w, m = _prepare(lambdas, y_rot)
    c = lam - 1.0
    return _rows(_check_etas(etas, c), c, w, order), m


def _rows(etas: np.ndarray, c: np.ndarray, w: np.ndarray, order: int, cn=None) -> np.ndarray:
    """Scale-free profile quantities at each eta, up to derivative ``order``.

    Returns the rows ``[eta, mean(w / d), mean(log d), L_w]``, then for
    ``order >= 1`` ``t = mean(w (lam - 1) / d^2) / mean(w / d)`` and L_w',
    then for ``order >= 2`` L_w'', a column per eta, with d = eta c + 1 and
    ``c = lam - 1``; unchecked. With ``cn``, the nodes less 1, the w terms
    run over the nodes instead (see ``_means``). The etas go in blocks of
    ``_BLOCK_ELEMENTS // n``, and every row is computed and reduced on its
    own, so neither the blocking nor the choice of etas changes a row's bits.
    """
    rows = max(1, _BLOCK_ELEMENTS // c.size)
    if etas.size <= rows:
        return _rows_block(etas, c, w, order, cn)
    blocks = [_rows_block(etas[i : i + rows], c, w, order, cn) for i in range(0, etas.size, rows)]
    return np.concatenate(blocks, axis=1)


# Terms ``_means`` averages at each derivative order, before log d.
_TERMS = (1, 3, 5)


def _means(etas, c: np.ndarray, w: np.ndarray, order: int, log: bool, cn=None) -> np.ndarray:
    """Spectral means at each eta, a row per term: w / d, then c / d and
    w c / d^2 (``order >= 1``), then w c^2 / d^3 and c^2 / d^2 (``order``
    2), then log d when ``log``; d = eta c + 1. A float eta gives a vector.

    Without ``cn`` the weights sit on the eigenvalues, and the terms fill
    one buffer and reduce in one call. Each is the same elementwise product,
    and its row the same pairwise sum, as on its own. At order 0 the buffer
    holds two (etas x n) arrays, w / d overwriting d: one more makes the
    grid pass several times slower.

    With ``cn``, the nodes of a quadrature rule less 1, the w terms run over
    the nodes (see ``_node_means``). Either way every mean divides by n.
    """
    if cn is not None:
        return _node_means(etas, c, w, order, log, cn)
    etas = np.asarray(etas)
    buf = np.empty((_TERMS[order] + log, *etas.shape, c.size))
    d = buf[min(order, 1)]  # the row of the term that overwrites d
    np.multiply(etas[..., None], c, out=d)
    d += 1.0
    if log:
        np.log(d, out=buf[-1])
    np.divide(w, d, out=buf[0])
    if order:
        h = np.divide(c, d, out=d)
        np.multiply(buf[0], h, out=buf[2])
        if order == 2:
            np.multiply(buf[2], h, out=buf[3])
            np.multiply(h, h, out=buf[4])
    means = np.add.reduce(buf, axis=-1)
    means /= c.size
    return means


def _node_means(etas, c: np.ndarray, w: np.ndarray, order: int, log: bool, cn: np.ndarray):
    """``_means`` with the weights w on nodes cn + 1 other than the
    eigenvalues: the w terms over the k nodes, with dn = eta cn + 1, and
    c / d, c^2 / d^2 and log d over the n eigenvalues, each in its buffer."""
    etas = np.asarray(etas)
    data = np.empty((order + 1, *etas.shape, cn.size))  # w / dn, w cn / dn^2, w cn^2 / dn^3
    dn = np.multiply(etas[..., None], cn)
    dn += 1.0
    np.divide(w, dn, out=data[0])
    if order:
        hn = np.divide(cn, dn, out=dn)
        for row in range(1, order + 1):
            np.multiply(data[row - 1], hn, out=data[row])
    spectrum = np.empty((order + log, *etas.shape, c.size))  # c / d, c^2 / d^2, log d
    d = spectrum[0]
    np.multiply(etas[..., None], c, out=d)
    d += 1.0
    if log:
        np.log(d, out=spectrum[-1])
    if order:
        h = np.divide(c, d, out=d)
        if order == 2:
            np.multiply(h, h, out=spectrum[1])
    means = np.empty((_TERMS[order] + log, *etas.shape))
    means[[0, 2, 3][: order + 1]] = np.add.reduce(data, axis=-1)
    means[[1, 4][:order]] = np.add.reduce(spectrum[:order], axis=-1)
    if log:
        means[-1] = np.add.reduce(spectrum[-1], axis=-1)
    means /= c.size
    return means


def _slopes(means: np.ndarray, order: int) -> list:
    """``[t, L_w']`` and, for ``order`` 2, L_w'', from ``_means``' rows."""
    s0 = means[0]
    t = means[2] / s0
    out = [t, t - means[1]]
    if order == 2:
        out.append(-2.0 * means[3] / s0 + t * t + means[4])
    return out


def _rows_block(etas: np.ndarray, c: np.ndarray, w: np.ndarray, order: int, cn=None) -> np.ndarray:
    """``_rows`` on one block."""
    means = _means(etas, c, w, order, True, cn)
    s0, logdet = means[0], means[-1]
    table = [etas, s0, logdet, -np.log(s0) - logdet]
    if order:
        table += _slopes(means, order)
    return np.array(table)


def _newton_block(etas, c: np.ndarray, w: np.ndarray, cn=None) -> list:
    """L_w' and L_w'' at each eta: the bits of ``_rows(etas, c, w, 2, cn)[5:]``.

    The caller has checked eta and the denominators; log d, which a Newton
    step never reads, is skipped. A float eta gives two scalars.
    """
    return _slopes(_means(etas, c, w, 2, False, cn), 2)[1:]


def loglik_grid(etas: np.ndarray, lambdas, y_rot) -> np.ndarray:
    """Vectorized profile log-likelihood over a grid of eta values."""
    table, m = _profile(etas, lambdas, y_rot, 0)
    return table[3] - math.log(m)


def dloglik(eta: float, lambdas, y_rot) -> float:
    """Analytic first derivative of the profile log-likelihood."""
    return float(_profile([float(eta)], lambdas, y_rot, 1)[0][5, 0])


def d2loglik(eta: float, lambdas, y_rot) -> float:
    """Analytic second derivative of the profile log-likelihood."""
    return float(_profile([float(eta)], lambdas, y_rot, 2)[0][6, 0])


@dataclass
class SolverResult:
    """Outcome of a certified maximization.

    No eta in [0, 1 - delta] scores more than ``gap`` above ``eta_hat``.
    ``newton_steps`` sums every Newton run's steps, ``converged`` is the
    last run's, and ``rows`` counts the likelihood rows the solve evaluated.
    """

    eta_hat: float
    sigma2_hat: float
    newton_steps: int
    converged: bool
    clamped: bool
    gap: float
    rows: int

    def summary(self) -> dict:
        return dict(vars(self))  # every field is a flat scalar

    @property
    def iterations_per_start(self) -> tuple[int]:
        """``(newton_steps,)``, read-only; ``bench/tracer.py`` reads it until
        it moves to ``newton_steps`` (ROADMAP item 2)."""
        return (self.newton_steps,)

    @property
    def chosen_start(self) -> int:
        """Always 0, read-only; ``bench/tracer.py`` reads it until it moves
        to ``newton_steps`` (ROADMAP item 2)."""
        return 0


def _interval_bounds(a, b) -> np.ndarray:
    """Upper bound of L_w on each interval [a, b], from the table columns of its ends.

    s0 = mean(w / d) is convex in eta, so it lies above T, the larger of its
    tangents at a and b, and mean(log d) is concave, so it lies above its
    chord C. Hence L_w <= -log T - C, which is convex on each piece of T
    and peaks at a, b or where the tangents cross. The caller ignores
    floating-point errors.
    """
    slope_a, slope_b = -a[4] * a[1], -b[4] * b[1]
    span = b[0] - a[0]
    # Where the tangents at a and b cross, as a fraction of [a, b].
    u = (b[1] - a[1] - slope_b * span) / ((slope_a - slope_b) * span)
    u = np.fmin(np.fmax(u, 0.0), 1.0)  # nan (0 / 0) -> 0
    low = np.fmax(a[1] + slope_a * span * u, 0.0)  # -log 0 = inf: no bound from T
    cross = -np.log(low) - (a[2] + (b[2] - a[2]) * u)
    return np.maximum(np.maximum(a[3], b[3]), cross)


def _newton(eta, d1, d2, upper: float, c, w, cn=None) -> tuple[float, int, bool, int]:
    """Newton from ``eta``, where L_w' is ``d1`` and L_w'' is ``d2`` (None:
    not yet evaluated), iterates clipped into [0, upper].

    ``c = lam - 1`` must give positive denominators at ``upper``: each d_i
    is monotone in eta, so that one check covers every step. A start at 0
    with L' <= 0 or at ``upper`` with L' >= 0 is optimal there: no step,
    converged. A start where L'' is not negative is not run, as Newton
    would head for a minimum: no step, not converged. Otherwise the run stops on a step
    below _TOL (converged), on a zero or non-finite L'' or step (failed,
    eta kept), or after _MAX_ITER steps. The caller ignores floating-point
    errors. Returns the final eta, the step count, the converged flag and
    the rows evaluated, one per step after the first and one for a ``d2``
    of None. ``cn`` is as in ``_rows``.
    """
    eta = float(eta)
    if (eta == 0.0 and d1 <= 0.0) or (eta == upper and d1 >= 0.0):
        return eta, 0, True, 0
    rows = 0
    if d2 is None:
        d1, d2 = _newton_block(eta, c, w, cn)
        rows = 1
    if not d2 < 0.0:
        return eta, 0, False, rows
    for steps in range(1, _MAX_ITER + 1):
        if steps > 1:
            d1, d2 = _newton_block(eta, c, w, cn)
            rows += 1
        step = float(d1 / d2)
        if not (math.isfinite(d2) and d2 != 0.0 and math.isfinite(step)):
            return eta, steps, False, rows
        new = min(max(eta - step, 0.0), upper)
        if abs(new - eta) < _TOL:
            return new, steps, True, rows
        eta = new
    return eta, _MAX_ITER, False, rows


def newton_estimate(lambdas, y_rot, delta: float = 0.01) -> SolverResult:
    """Maximize the profile log-likelihood on [0, 1 - delta], with a certificate.

    ``delta`` in (0, 0.5) is the boundary margin. Scores 9 equally spaced
    knots with L_w'', runs Newton (at most 20 steps, step tolerance 1e-8)
    from the best one to p, its first step from the knot's row, and scores p
    and the ladder p +- h / 2.5^k, k = 1..6 (h the knot spacing) in one
    pass. A best knot where L'' >= 0 starts no run: p is that knot. Branch
    and bound then bisects, a vectorized pass per round, every interval
    whose ``_interval_bounds`` bound exceeds the best score by more than
    1e-6. Should a point other than p score best, Newton polishes it too,
    kept if it scores at least as high. An estimate at or above
    1 - delta - 1e-12 reports 1 - delta, ``clamped=True``. ``gap`` is the
    largest bound less the returned score, clipped at 0.
    """
    _check_delta(delta)
    lam, y, s = _pair(lambdas, y_rot)
    return _maximize(lam, lam, y, s, delta)


def _estimate(lam: np.ndarray, nodes: np.ndarray, y: np.ndarray, delta: float = 0.01) -> SolverResult:
    """``newton_estimate`` on a spectral measure of ``spectral._measures``:
    the eigenvalues ``lam``, and weights y^2 on ``nodes``, which are
    ``lam`` itself or a quadrature rule's nodes in lam's range. Checks
    delta, and that y is finite and not all zero, with ``newton_estimate``'s
    errors; the arrays are trusted otherwise."""
    _check_delta(delta)
    return _maximize(lam, nodes, y, _scale(y), delta)


def _maximize(lam, nodes, y, s: float, delta: float) -> SolverResult:
    """The solve of ``newton_estimate`` on checked arrays, with s = max|y|.
    Nodes that are ``lam`` share one d per pass with the eigenvalue terms."""
    w, m = _weights(y, s, lam.size)
    cn = None if nodes is lam else nodes - 1.0
    c = lam - 1.0
    if -_FLAT_SPECTRUM_TOL < c.min() and c.max() < _FLAT_SPECTRUM_TOL:
        raise UnidentifiableModelError(
            "all kinship eigenvalues equal 1: the likelihood is constant in eta"
        )

    upper = 1.0 - delta
    # Every eta the solve evaluates lies in [0, upper].
    _check_etas(upper, c)

    # Table rows: eta, s0, mean(log d), L_w, t, L_w' (and L_w'' for the
    # knots); a column per eta.
    with np.errstate(all="ignore"):
        h = upper / (_KNOTS - 1)
        knots = np.arange(_KNOTS, dtype=np.float64) * h  # np.linspace(0, upper, _KNOTS)'s bits
        knots[-1] = upper
        knots = _rows(knots, c, w, 2, cn)
        start = knots[:, knots[3].argmax()]
        p, steps, converged, newton_rows = _newton(start[0], start[5], start[6], upper, c, w, cn)
        scored = knots[:-1]
        if steps or converged:  # else p is a knot where no run started
            ladder = p + h * _LADDER  # kept inside (0, upper): both ends are knots
            ladder = _rows(ladder[(ladder > 0.0) & (ladder < upper)], c, w, 1, cn)
            scored = np.concatenate((scored, ladder), axis=1)
            scored = scored[:, scored[0].argsort()]

        # The best score only rises, so an interval within _GAP_TOL of it
        # stays closed and only live ones are carried; ``top`` is the largest
        # bound of a closed interval. _MAX_ROUNDS ends the search next to a
        # denominator near 0 at ``upper``, where the bound cannot close.
        lo, hi = scored[:, :-1], scored[:, 1:]
        high, top = scored[3].max(), -np.inf
        for _ in range(_MAX_ROUNDS):
            bound = _interval_bounds(lo, hi)
            live = bound > high + _GAP_TOL
            if not np.count_nonzero(live):
                top = max(top, bound.max())
                break
            top = max(top, bound[~live].max(initial=-np.inf))
            lo, hi = lo[:, live], hi[:, live]
            mid = _rows(0.5 * (lo[0] + hi[0]), c, w, 1, cn)
            high = max(high, mid[3].max())
            scored = np.concatenate((scored, mid), axis=1)
            lo, hi = np.concatenate((lo, mid), axis=1), np.concatenate((mid, hi), axis=1)
        else:
            top = max(top, _interval_bounds(lo, hi).max())

        eta_hat = p
        scored = scored[:, scored[0].argsort()]  # ties go to the lowest eta
        best = scored[:, scored[3].argmax()]
        if best[0] != p:  # a multimodal likelihood, a failed or a skipped first run
            polished, more, converged, extra = _newton(best[0], best[5], None, upper, c, w, cn)
            steps, newton_rows = steps + more, newton_rows + extra
            eta_hat = float(best[0])
            if polished != eta_hat:
                scored = np.concatenate((scored, _rows(np.array([polished]), c, w, 1, cn)), axis=1)
                if scored[3, -1] >= best[3]:
                    eta_hat = polished
    clamped = eta_hat >= upper - 1e-12
    eta_hat = upper if clamped else eta_hat
    s0, score = scored[[1, 3], (scored[0] == eta_hat).argmax()]
    return SolverResult(
        eta_hat=eta_hat,
        sigma2_hat=m * float(s0),
        newton_steps=steps,
        converged=converged,
        clamped=clamped,
        gap=max(0.0, float(top - score)),
        rows=scored.shape[1] + newton_rows,
    )


def grid_oracle(lambdas, y_rot, grid_step: float, delta: float = 0.01) -> float:
    """Argmax of the profile log-likelihood over a uniform grid on [0, 1 - delta].

    The grid steps by ``grid_step`` from 0 and ends at 1 - delta. Every
    point is scored with ``loglik_grid`` and ties resolve to the lowest eta,
    so the oracle shares no search code with ``newton_estimate``.
    """
    if not 0.0 < _check_number("grid_step", grid_step) <= 0.01:
        raise ConfigurationError(f"grid_step must be in (0, 0.01], got {grid_step}")
    _check_delta(delta)
    upper = 1.0 - delta
    count = int(np.floor(upper / grid_step + 1e-9))
    grid = np.linspace(0.0, count * grid_step, count + 1)
    if upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    grid[-1] = upper  # not count * grid_step, which may round past it
    return float(grid[np.argmax(loglik_grid(grid, lambdas, y_rot))])
