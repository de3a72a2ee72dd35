"""Design standardization, kinship spectrum, and Marchenko-Pastur utilities.

The estimator consumes only the eigenvalues of the kinship matrix
R = Z Z' / N together with the phenotype's spectral measure: the rotated
observations U'Y on the eigenvalues, or a Lanczos quadrature rule for them
(``_measures``), so the heavy objects (eigenvectors) are formed only where
a route needs them and retained only on request.

The reference spectral law is the Marchenko-Pastur distribution with
aspect ratio a = n/N: an absolutely continuous part on
[(1-sqrt(a))^2, (1+sqrt(a))^2] plus, when a > 1, an atom of mass 1 - 1/a
at zero. Integrals against the continuous part use the substitution

    lambda(theta) = 1 + a - 2 sqrt(a) cos(theta),  theta in [0, pi],

under which the density becomes (2/pi) sin(theta)^2 / lambda(theta):
both square-root edge singularities disappear and fixed-order
Gauss-Legendre quadrature converges spectrally for smooth integrands.
The distribution function needs no quadrature: the bulk mass up to
theta has the closed form given in ``mp_cdf``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    MonomorphicColumnError,
    NumericalFailureError,
    ShapeMismatchError,
    _check_count,
)

# Tiny negative eigenvalues from round-off are clamped to zero; R is PSD
# by construction so anything below -EIGENVALUE_CLAMP_TOL is left alone
# for the caller to notice.
EIGENVALUE_CLAMP_TOL = 1e-8

# Gauss-Legendre nodes behind every Marchenko-Pastur integral.
QUADRATURE_ORDER = 512

# Side of the square blocks in which ``eigendecompose`` compares R with R'.
_SYMMETRY_BLOCK = 128

# Entries per row block of ``standardize`` (at least one row).
_STANDARDIZE_BLOCK = 1 << 16

# Lanczos quadrature (``_measures``): a column's Gauss rule is accepted once
# the Gauss-Radau bracket on sum w / d at eta = 1 - delta is this narrow,
# relative. The route runs when the steps predicted from the eigenvalues
# are at most n / _LANCZOS_SHARE, and a column that takes more than twice
# that falls back to eigh; below that share a step costs less than what
# eigvalsh saves over eigh, with room for several columns.
_LANCZOS_TOL = 1e-14
_LANCZOS_SHARE = 8

log = logging.getLogger("specherit")


@dataclass
class StandardizedDesign:
    """n x N design whose columns are empirically centered and scaled.

    Column j of Z is (W_j - mean(W_j)) / s_j with s_j the divide-by-n
    empirical standard deviation, so each column sums to 0 and its squared
    entries sum to n. ``dropped`` lists original column indices removed
    under the ``drop`` monomorphic-column policy.
    """

    Z: np.ndarray
    dropped: tuple[int, ...] = ()


@dataclass
class SpectralDecomposition:
    """Kinship eigenvalues (descending), rotated observations, and the
    eigenvectors when they are kept."""

    lambdas: np.ndarray
    y_rot: np.ndarray
    eigvecs: np.ndarray | None = None


def _design_shape(M: np.ndarray) -> tuple[int, int]:
    """The design rule, ``(n, N)`` of a 2-D array of n >= 2 rows and N >= 1 columns."""
    if M.ndim != 2 or 0 in M.shape:
        raise ShapeMismatchError(f"design matrix must be 2-D and non-empty, got shape {M.shape}")
    _check_count("n", M.shape[0], 2, ShapeMismatchError)
    return M.shape


def _phenotype(Y, n: int, columns: bool = False) -> np.ndarray:
    """The phenotype rule: Y as float64, a 1-D array of n finite values, or
    with ``columns`` also an n x k array of them."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (n,) and not (columns and Y.ndim == 2 and Y.shape[0] == n):
        shapes = f"({n},) or ({n}, k)" if columns else f"({n},)"
        raise ShapeMismatchError(f"phenotype must have shape {shapes}, got {Y.shape}")
    if not np.isfinite(Y).all():
        raise DataError(f"phenotype holds {np.count_nonzero(~np.isfinite(Y))} nan/inf value(s)")
    return Y


def standardize(W, policy: str = "error") -> StandardizedDesign:
    """Center and scale genotype columns to zero mean and unit empirical variance.

    Args:
        W: GenotypeMatrix or plain 2-D array of raw column data.
        policy: what to do with monomorphic columns, those whose entries are
            all equal and finite: ``"error"`` raises
            :class:`MonomorphicColumnError` listing them, ``"drop"`` removes
            them and records their indices.

    Returns:
        StandardizedDesign with column sums 0 and squared column sums n.

    Monomorphic columns are found on W before Z exists, so a constant float
    column such as 0.1 repeated is one too, though its float scale is not 0.
    ``"drop"`` copies W's kept columns (int8 on the file and study paths, an
    eighth of Z's size) and builds Z for those alone.

    The result is the two-pass formula ``Z = W - mean``,
    ``s = sqrt(mean(Z**2, axis=0))``, ``Z / s`` bit for bit, computed in
    row blocks of about ``_STANDARDIZE_BLOCK`` values with no n x N
    temporary. NumPy reduces a C-ordered array over axis 0 row by row, so
    each block's squares are summed into a small buffer whose row 0 carries
    the running column sum; that repeats the whole-array sum's additions in
    the same order. A column with nan/inf, or whose scale overflows or
    underflows to 0, raises DataError naming its index in W.
    """
    if policy not in ("error", "drop"):
        raise ConfigurationError(f"policy must be 'error' or 'drop', got {policy!r}")
    Wm = np.asarray(getattr(W, "entries", W))
    _design_shape(Wm)
    # All equal and finite: min and max propagate nan, and a column of inf
    # alone is left, like one with nan, to the non-finite check below.
    low = Wm.min(axis=0)
    constant = (low == Wm.max(axis=0)) & np.isfinite(low)
    dropped = tuple(int(j) for j in np.flatnonzero(constant))
    if dropped:
        if policy == "error":
            raise MonomorphicColumnError(dropped)
        Wm = Wm[:, ~constant]
    n, N = Wm.shape
    # One n x N array is centered and scaled in place. A non-finite entry
    # makes its column's mean or scale non-finite, and so does an entry whose
    # square overflows; those O(N) vectors are checked instead of Z itself.
    Z = np.empty((n, N))
    rows = max(1, _STANDARDIZE_BLOCK // max(N, 1))
    squares = np.empty((min(rows, n) + 1, N))
    total = np.zeros(N)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(Wm, axis=0, dtype=np.float64) / n
        for start in range(0, n, rows):
            block = Z[start : start + rows]
            np.copyto(block, Wm[start : start + rows])  # casting first beats a mixed-dtype subtract
            block -= mean
            squares[0] = total
            np.square(block, out=squares[1 : len(block) + 1])
            np.add.reduce(squares[: len(block) + 1], axis=0, out=total)
        s = np.sqrt(total / n)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(s) & (s > 0.0)))
    if bad.size:
        raise DataError(
            f"column {np.flatnonzero(~constant)[bad[0]]} has a non-finite mean or scale, or a "
            f"zero scale: it holds nan/inf, or entries too large or too close together to square "
            f"({bad.size} such column(s))"
        )
    Z /= s
    return StandardizedDesign(Z=Z, dropped=dropped)


def residualize(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project Y onto the orthogonal complement of the column space of X.

    Y must pass the phenotype rule; X is checked and factored by
    ``_residualizer``, whose errors this raises. No caller in the package:
    it is the public one-projection helper (``estimate_files`` reuses one
    ``_residualizer`` for two projections).
    """
    Y = _phenotype(Y, np.size(Y))
    return _residualizer(X, Y.size)(Y)


def _residualizer(X: np.ndarray, n: int):
    """The map v -> v - Q Q'v onto the orthogonal complement of the column
    space of X, with X checked and QR-factored once.

    X must be finite (DataError). Raises ShapeMismatchError unless X has n
    rows and fewer columns than rows, and DataError when X is column-rank
    deficient.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != n:
        raise ShapeMismatchError(
            f"covariates {X.shape} do not align with phenotype of length {n}"
        )
    if not np.isfinite(X).all():
        raise DataError(f"covariates hold {np.count_nonzero(~np.isfinite(X))} nan/inf value(s)")
    p = X.shape[1]
    if p >= n:
        raise ShapeMismatchError(f"need p < n covariates, got p={p}, n={n}")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = max(n, p) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    if diag.size == 0 or (diag <= tol).any():
        raise DataError(
            f"covariate matrix has column rank < {p} (tolerance {tol:.3e})"
        )
    return lambda v: v - Q @ (Q.T @ v)


def kinship(Z) -> np.ndarray:
    """Kinship matrix R = Z Z' / N of a design that passes the design rule,
    exactly symmetric: NumPy forms the product of a C- or F-contiguous Zm
    with its transpose as one symmetric update."""
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    _design_shape(Zm)
    if not (Zm.flags.c_contiguous or Zm.flags.f_contiguous):
        Zm = np.ascontiguousarray(Zm)
    R = Zm @ Zm.T
    R /= Zm.shape[1]
    return R


def _asymmetry(R: np.ndarray) -> float:
    """max |R_ij - R_ji| over blocks of the upper triangle, with no n x n temporary."""
    n, b = R.shape[0], _SYMMETRY_BLOCK
    worst = 0.0
    with np.errstate(over="ignore"):
        for i in range(0, n, b):
            for j in range(i, n, b):
                diff = R[i : i + b, j : j + b] - R[j : j + b, i : i + b].T
                worst = max(worst, float(np.abs(diff).max()))
    return worst


def _symmetric_eigh(R, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``eigh`` (``eigvalsh`` without ``vectors``) of a square, finite matrix
    symmetric within 1e-10: the eigenvalues descending with tiny negatives
    clamped to 0, and the eigenvectors in their order or None."""
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got {R.shape}")
    if not np.isfinite(R).all():
        raise DataError("matrix has non-finite (nan or inf) entries")
    if _asymmetry(R) > 1e-10:
        raise ShapeMismatchError("matrix is not symmetric within 1e-10")
    try:
        lam, U = np.linalg.eigh(R) if vectors else (np.linalg.eigvalsh(R), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    lam = lam[::-1].copy()
    small_negative = (lam < 0.0) & (lam >= -EIGENVALUE_CLAMP_TOL)
    lam[small_negative] = 0.0
    return lam, None if U is None else U[:, ::-1].copy()


def eigendecompose(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, tiny negatives clamped to 0) and eigenvectors.

    Columns of the returned U are the eigenvectors of the corresponding
    eigenvalues, so U diag(lambda) U' reconstructs R.
    """
    return _symmetric_eigh(R, vectors=True)


def eigenvalues(R: np.ndarray) -> np.ndarray:
    """The eigenvalues of ``eigendecompose``, with its checks, from
    ``eigvalsh``: about half of ``eigh``'s time, and no n x n eigenvectors.
    They may differ from ``eigendecompose``'s in the last bits."""
    return _symmetric_eigh(R, vectors=False)[0]


def rotate(U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rotate observations into the eigenbasis: returns U'Y."""
    U = np.asarray(U, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if U.ndim != 2 or Y.ndim != 1 or U.shape[0] != Y.size:
        raise ShapeMismatchError(f"cannot rotate length-{Y.size} vector by {U.shape}")
    return U.T @ Y


def decompose(Z, Y: np.ndarray, keep_eigvecs: bool = False) -> SpectralDecomposition:
    """Full spectral pipeline: kinship, eigendecomposition, rotation.

    Z and Y pass the design and phenotype rules before any kinship work. Y
    is one phenotype (n,) or k as columns (n, k); ``y_rot`` has Y's shape and
    each column equals its own 1-D call bit for bit. With N >= n or N = 1, or
    when the eigenvectors are kept, this is ``eigendecompose(kinship(Z))``
    and one ``rotate`` per column. This frame drops its references to Z
    after ``kinship``, so a caller that passes the only one (as
    ``estimate_from_design`` and the study's design groups do, by popping it
    from a list) has Z freed before ``eigh``: peak memory is the larger of
    Z + R and R + ``eigh``'s workspace, not their sum. That needs CPython
    3.11 or later, where a call's arguments move into the callee's frame.
    With 1 < N < n the n x n kinship has at least n - N zero eigenvalues,
    so the N x N Gram Z'Z is decomposed instead (see ``_gram_rotate``); Z is
    kept for the rotations.

    The estimate and the study need no rotations, only y's spectral measure:
    they call ``_measures``, whose n-side route forms no eigenvectors.
    ``decompose`` is the route that keeps them, and its bits do not change.
    """
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    n, N = _design_shape(Zm)
    Y = _phenotype(Y, n, columns=True)
    columns = np.ascontiguousarray(Y.reshape(n, -1).T)  # one row per column of Y
    if 1 < N < n and not keep_eigvecs:
        lam, y_rot = _gram_rotate(Zm, *eigendecompose(kinship(Zm.T)), columns)
        return SpectralDecomposition(lam, y_rot.reshape(Y.shape, order="F"))
    R = kinship(Zm)
    del Z, Zm  # eigh and the rotations need only R
    lam, U = eigendecompose(R)
    y_rot = np.array([rotate(U, y) for y in columns]).T  # contiguous columns
    return SpectralDecomposition(lam, y_rot.reshape(Y.shape, order="F"), U if keep_eigvecs else None)


def _gram_rotate(Zm: np.ndarray, nu: np.ndarray, V: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of R = Z Z'/N, and the n x k rotations of the k rows of
    ``columns``, from the eigenpairs ``(nu, V)`` of ``kinship(Z')`` = Z'Z/n.

    R's nonzero eigenvalues are mu = (n/N) nu with eigenvectors
    U1 = Z V / sqrt(n nu). Eigenvalues at or below EIGENVALUE_CLAMP_TOL
    join the null block. The estimator depends on the spectrum only through
    the pairs (lambda_i, y_i^2), so any orthonormal basis of the null space
    gives the same fit; the one chosen puts the whole null mass
    ||Y - U1 U1'Y||^2 on its first vector. The mass is taken from the
    residual, not as ||Y||^2 - ||U1'Y||^2, which cancels when the mass is
    small.
    """
    n, N = Zm.shape
    lam, r = _gram_eigenvalues(nu, n, N)
    V1, scale = V[:, :r], np.sqrt(n * nu[:r])
    y_rot = np.zeros((n, len(columns)), order="F")
    for j, y in enumerate(columns):
        top = (V1.T @ rotate(Zm, y)) / scale  # rotate(Zm, y) is Z'y
        residual = y - Zm @ (V1 @ (top / scale))
        y_rot[:r, j] = top
        y_rot[r, j] = np.sqrt(residual @ residual)
    return lam, y_rot


def _gram_eigenvalues(nu: np.ndarray, n: int, N: int) -> tuple[np.ndarray, int]:
    """The n eigenvalues of R = Z Z'/N from the descending eigenvalues
    ``nu`` of Z'Z/n, and their count r above EIGENVALUE_CLAMP_TOL: the
    first r are mu = (n/N) nu, the rest are 0."""
    mu = nu * (n / N)
    r = int(np.count_nonzero(mu > EIGENVALUE_CLAMP_TOL))
    lam = np.zeros(n)
    lam[:r] = mu[:r]
    return lam, r


def _kinship_eigenvalues(Z) -> np.ndarray:
    """The eigenvalues of R = Z Z'/N (descending), with no eigenvectors.

    With 1 < N < n they come from the N x N Gram Z'Z/n, as in
    ``decompose``. Either way this frame drops its references to Z once the
    kinship is formed, so a caller that passes the only one has Z freed
    before ``eigvalsh``.
    """
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    n, N = _design_shape(Zm)
    gram = 1 < N < n
    R = kinship(Zm.T if gram else Zm)
    del Z, Zm  # eigvalsh needs only R
    lam = eigenvalues(R)
    return _gram_eigenvalues(lam, n, N)[0] if gram else lam


def _lanczos_steps(top: float, bottom: float, shift: float) -> float:
    """Lanczos steps that the Gauss rule for sum w / (lambda + shift) is
    predicted to take on a spectrum in [bottom, top] before its relative
    error falls to _LANCZOS_TOL.

    This is the conjugate-gradient bound: the error falls by
    ((r - 1) / (r + 1))^2 per step, with r^2 = (top + shift) / (bottom +
    shift). For R's spectrum, bottom is the least nonzero eigenvalue: the
    null space, of any multiplicity, is one node of y's measure and costs a
    few steps more.
    """
    r = math.sqrt((top + shift) / (bottom + shift))
    if r == 1.0:
        return 0.0
    return math.log(4.0 / _LANCZOS_TOL) / (2.0 * math.log1p(2.0 / (r - 1.0)))


def _lanczos(R: np.ndarray, y: np.ndarray, shift: float, floor: float, cap: int):
    """The Gauss rule of y's spectral measure on R from at most ``cap``
    Lanczos steps started at y.

    y's measure puts mass (u_i'y)^2 on each eigenvalue lambda_i of R. k
    steps with full reorthogonalization give the tridiagonal T_k, whose
    eigenvalues theta_j are the rule's nodes, with weights ||y||^2 tau_j^2
    from the first components tau_j of its eigenvectors. The k-node rule
    integrates polynomials of degree 2k - 1 exactly. For
    f(x) = 1 / (x + shift) with shift > 0, the Gauss rule falls below
    sum (u_i'y)^2 f(lambda_i) and the Gauss-Radau rule with a node fixed at
    ``floor`` <= min lambda rises above it (Golub & Meurant, *Matrices,
    Moments and Quadrature*, 2010). Both come from the pivots of
    T_k + shift I and T_k - floor I, updated per step: the run stops when
    they agree within _LANCZOS_TOL, relative, or at ``cap``. A breakdown
    (beta = 0) gives them equal, as the rule is then exact; a pivot of
    T_k - floor I that is not positive means a node has reached ``floor``,
    and counts as agreement.

    y, a finite nonzero vector, is divided by max|y| before the run, so that
    neither its scale nor its square leaves the float range. ``cap`` is at
    least 1. Returns the nodes, one per step and clipped below at ``floor``,
    which round-off could cross, the amplitudes ||y|| |tau_j|, whose squares
    are the weights, and the bracket ``(gauss, radau)`` on
    sum (u_i'y)^2 f(lambda_i) / ||y||^2.
    """
    scale = float(np.abs(y).max())
    u = y / scale
    norm = math.sqrt(float(u @ u))
    Q = np.empty((cap, y.size))  # the Lanczos vectors, one per row
    alphas, betas = np.empty(cap), np.empty(cap)  # T_k's diagonal and off-diagonal
    Q[0] = u / norm
    gauss, c2, pi, rho, beta = 0.0, 1.0, 1.0, 1.0, 0.0
    for k in range(cap):
        v = R @ Q[k]
        a = float(Q[k] @ v)
        v -= a * Q[k]
        if k:
            v -= beta * Q[k - 1]
        basis = Q[: k + 1]
        v -= basis.T @ (basis @ v)  # full reorthogonalization
        # The pivots of T_k + shift I and T_k - floor I, and
        # gauss = e1'(T_k + shift I)^-1 e1 = sum of c_j^2 / pi_j.
        pi = a + shift - beta * beta / pi
        rho = a - floor - beta * beta / rho
        gauss += c2 / pi
        alphas[k] = a
        beta = betas[k] = math.sqrt(float(v @ v))
        c2 *= (beta / pi) ** 2
        # Radau appends beta and the diagonal floor + beta^2 / rho to T_k,
        # which adds c2 over the new last pivot of T + shift I to gauss.
        gap = c2 / (floor + shift + beta * beta * (1.0 / rho - 1.0 / pi)) if rho > 0.0 else 0.0
        if gap <= _LANCZOS_TOL * gauss or k + 1 == cap:
            break
        Q[k + 1] = v / beta
    T = np.diag(alphas[: k + 1]) + np.diag(betas[:k], 1) + np.diag(betas[:k], -1)
    theta, V = np.linalg.eigh(T)
    return np.clip(theta, floor, None), np.abs(V[0]) * (scale * norm), (gauss, gauss + gap)


def _measures(Z, Y: np.ndarray, delta: float = 0.01) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """y's spectral measure on R = Z Z'/N for each column y of Y, as
    ``(lambdas, nodes, amplitudes)``: the solver reads the eigenvalues of R
    and the weights amplitudes^2 on the nodes, which sum to ||y||^2.

    Z and Y pass ``decompose``'s rules; Y is (n,) or (n, k), and each
    column's measure equals its own 1-D call bit for bit. ``delta`` is the
    solver's boundary margin, at whose eta = 1 - delta the quadrature is
    checked. Routes:

    * 1 < N < n: ``decompose``'s Gram route; the nodes are the eigenvalues
      and the amplitudes the rotated observations.
    * N >= n or N = 1: this frame forms the kinship and drops its
      references to Z, as ``decompose`` does, then takes R's eigenvalues
      from ``eigenvalues`` alone. When the Lanczos steps that the spectrum
      predicts (``_lanczos_steps``) are at most n / _LANCZOS_SHARE, each
      nonzero column gets the Gauss rule of ``_lanczos``, capped at twice
      that share, and a zero column gets no nodes. Otherwise, and for a
      column that reaches the cap, the measure is ``eigendecompose`` plus
      ``rotate``, the bits of ``decompose``. With N >= n the steps are
      first predicted from the Marchenko-Pastur edges m (1 -+ sqrt(n/N))^2,
      m = trace(R) / n the mean eigenvalue, and when even those exceed the
      share, eigvalsh is skipped, as it would only precede eigh: near
      n = N, and for small n.

    One DEBUG line on the package logger names the route, with each
    column's Lanczos steps and final bracket width.
    """
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    n, N = _design_shape(Zm)
    Y = _phenotype(Y, n, columns=True)
    columns = np.ascontiguousarray(Y.reshape(n, -1).T)  # one row per column of Y
    if 1 < N < n:
        lam, y_rot = _gram_rotate(Zm, *eigendecompose(kinship(Zm.T)), columns)
        log.debug("spectrum of a %d x %d design: Gram eigh", n, N)
        return [(lam, lam, y) for y in y_rot.T]
    R = kinship(Zm)
    del Z, Zm  # eigvalsh, Lanczos and eigh need only R
    shift = delta / (1.0 - delta)  # sum w / d at eta = 1 - delta is sum w / (lam + shift), over eta
    share = n // _LANCZOS_SHARE
    cap = 2 * share
    stage, predicted = "Marchenko-Pastur edges", 0.0
    if N >= n:  # at N = 1 < n the edges would cross
        mean, root = float(np.trace(R)) / n, math.sqrt(n / N)
        predicted = _lanczos_steps(mean * (1.0 + root) ** 2, mean * (1.0 - root) ** 2, shift)
    quadrature = 0 < share and predicted <= share
    if quadrature:
        lam = eigenvalues(R)
        positive = lam[lam > EIGENVALUE_CLAMP_TOL]
        stage, predicted = "eigvalsh", 0.0
        if positive.size:
            predicted = _lanczos_steps(positive[0], positive[-1], shift)
        quadrature = predicted <= share
    exact = None  # eigendecompose(R), once a column needs it
    measures, routes = [], []
    for y in columns:
        route = "eigh"
        if quadrature:
            if not y.any():
                measures.append((lam, lam[:0], y[:0]))
                routes.append("zero")
                continue
            nodes, amplitudes, (gauss, radau) = _lanczos(R, y, shift, max(float(lam[-1]), 0.0), cap)
            width = (radau - gauss) / gauss
            if width <= _LANCZOS_TOL:
                measures.append((lam, nodes, amplitudes))
                routes.append(f"Lanczos {nodes.size} steps, bracket {width:.1e}")
                continue
            route = f"no Lanczos rule in {cap} steps (bracket {width:.1e}), eigh"
        if exact is None:
            exact = eigendecompose(R)
        measures.append((exact[0], exact[0], rotate(exact[1], y)))
        routes.append(route)
    log.debug("spectrum of a %d x %d design: %.0f Lanczos steps predicted from the %s for a "
              "share of %d; %s", n, N, predicted, stage, share, "; ".join(routes))
    return measures


def esd(lambdas: np.ndarray, x) -> float | np.ndarray:
    """Empirical spectral distribution: fraction of eigenvalues <= x."""
    lam = np.sort(np.asarray(lambdas, dtype=np.float64))
    xs = np.asarray(x, dtype=np.float64)
    values = np.searchsorted(lam, xs, side="right") / max(lam.size, 1)
    return float(values) if np.isscalar(x) else values


@dataclass(frozen=True)
class MPLaw:
    """Marchenko-Pastur law with aspect ratio a > 0.

    Support of the continuous part is [a_minus, a_plus] = (1 -+ sqrt(a))^2;
    for a > 1 an atom of mass 1 - 1/a sits at zero.
    """

    a: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ConfigurationError(f"aspect ratio must be positive, got {self.a}")

    @property
    def a_minus(self) -> float:
        return (1.0 - np.sqrt(self.a)) ** 2

    @property
    def a_plus(self) -> float:
        return (1.0 + np.sqrt(self.a)) ** 2

    @property
    def mass_at_zero(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.a)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(QUADRATURE_ORDER)


def _bulk_quadrature(a: float) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes mapped onto [0, pi] in the theta variable.
    x, w = _gauss_legendre()
    theta, wt = 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w
    lam = 1.0 + a - 2.0 * np.sqrt(a) * np.cos(theta)
    density = (2.0 / np.pi) * np.sin(theta) ** 2 / lam
    return lam, density * wt


def mp_integrate(law: MPLaw, f) -> float:
    """Integrate f against the Marchenko-Pastur law.

    ``f`` is evaluated on an ndarray of quadrature nodes inside the bulk
    support (it must broadcast) and, when the law has an atom at zero, once
    at 0.0. Absolute accuracy is ~1e-9 or better for smooth integrands;
    step discontinuities inside the support are only resolved to
    O(1/QUADRATURE_ORDER).
    """
    lam, weights = _bulk_quadrature(law.a)
    values = np.asarray(f(lam), dtype=np.float64)
    atom = law.mass_at_zero
    atom_term = atom * float(f(np.float64(0.0))) if atom > 0.0 else 0.0
    total = float(np.dot(values, weights)) + atom_term
    if not np.isfinite(total):
        raise NumericalFailureError("integrand produced non-finite values")
    return total


def mp_cdf(law: MPLaw, x) -> float | np.ndarray:
    """Marchenko-Pastur distribution function at x, in closed form.

    0 for x < 0, else mass_at_zero plus the bulk mass below x, the theta
    density's integral over [0, t] with t = arccos(clip((1 + a - x) /
    (2 sqrt(a)), -1, 1)): (2/pi) [sin t / (2 sqrt(a)) + (1 + a) t / (4 a)
    - |1 - a| / (2 a) arctan((1 + sqrt(a)) / |1 - sqrt(a)| tan(t / 2))].
    A NaN x raises NumericalFailureError.
    """
    xs = np.asarray(x, dtype=np.float64)
    a, sqrt_a = law.a, np.sqrt(law.a)
    t = np.arccos(np.clip((1.0 + a - xs) / (2.0 * sqrt_a), -1.0, 1.0))
    # arctan2 keeps the last term finite at a = 1, where its weight |1 - a| is 0
    edge = np.arctan2((1.0 + sqrt_a) * np.tan(t / 2.0), abs(1.0 - sqrt_a))
    bulk = np.sin(t) / (2.0 * sqrt_a) + (1.0 + a) * t / (4.0 * a) - abs(1.0 - a) / (2.0 * a) * edge
    out = np.where(xs < 0.0, 0.0, law.mass_at_zero + (2.0 / np.pi) * bulk)
    if not np.isfinite(out).all():
        raise NumericalFailureError("CDF evaluated at NaN")
    return float(out) if np.isscalar(x) else out
