"""Design standardization, kinship spectrum, and Marchenko-Pastur utilities.

The estimator consumes only the eigenvalues of the kinship matrix
R = Z Z' / N together with the rotated observations U'Y, so the heavy
objects (eigenvectors) are retained only on request.

The reference spectral law is the Marchenko-Pastur distribution with
aspect ratio a = n/N: an absolutely continuous part on
[(1-sqrt(a))^2, (1+sqrt(a))^2] plus, when a > 1, an atom of mass 1 - 1/a
at zero. Integrals against the continuous part use the substitution

    lambda(theta) = 1 + a - 2 sqrt(a) cos(theta),  theta in [0, pi],

under which the density becomes (2/pi) sin(theta)^2 / lambda(theta):
both square-root edge singularities disappear and fixed-order
Gauss-Legendre quadrature converges spectrally for smooth integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    MonomorphicColumnError,
    NumericalFailureError,
    RankDeficientCovariatesError,
    ShapeMismatchError,
    _check_count,
)

# Tiny negative eigenvalues from round-off are clamped to zero; R is PSD
# by construction so anything below -EIGENVALUE_CLAMP_TOL is left alone
# for the caller to notice.
EIGENVALUE_CLAMP_TOL = 1e-8

# Gauss-Legendre nodes behind every Marchenko-Pastur integral and CDF value.
QUADRATURE_ORDER = 512

# Side of the square blocks in which ``eigendecompose`` compares R with R'.
_SYMMETRY_BLOCK = 128

# Entries per row block of ``standardize`` (at least one row).
_STANDARDIZE_BLOCK = 1 << 16


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


def standardize(W, policy: str = "error") -> StandardizedDesign:
    """Center and scale genotype columns to zero mean and unit empirical variance.

    Args:
        W: GenotypeMatrix or plain 2-D array of raw column data.
        policy: what to do with zero-variance (monomorphic) columns:
            ``"error"`` raises :class:`MonomorphicColumnError` listing them,
            ``"drop"`` removes them and records their indices.

    Returns:
        StandardizedDesign with column sums 0 and squared column sums n.

    The result is the two-pass formula ``Z = W - mean``,
    ``s = sqrt(mean(Z**2, axis=0))``, ``Z / s`` bit for bit, computed in
    row blocks of about ``_STANDARDIZE_BLOCK`` values with no n x N
    temporary. NumPy reduces a C-ordered array over axis 0 row by row, so
    each block's squares are summed into a small buffer whose row 0 carries
    the running column sum; that repeats the whole-array sum's additions in
    the same order.
    """
    if policy not in ("error", "drop"):
        raise ConfigurationError(f"policy must be 'error' or 'drop', got {policy!r}")
    Wm = np.asarray(getattr(W, "entries", W))
    if Wm.ndim != 2:
        raise ShapeMismatchError("design matrix must be 2-D")
    n, N = Wm.shape
    _check_count("n", n, 2, ShapeMismatchError)
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
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(s)))
    if bad.size:
        raise DataError(
            f"column {int(bad[0])} has a non-finite mean or scale: it holds nan/inf "
            f"or entries too large to square ({bad.size} such column(s))"
        )
    monomorphic = np.flatnonzero(s == 0.0)
    dropped: tuple[int, ...] = ()
    if monomorphic.size:
        if policy == "error":
            raise MonomorphicColumnError(monomorphic)
        keep = s > 0.0
        Z = Z[:, keep]
        s = s[keep]
        dropped = tuple(int(j) for j in monomorphic)
    Z /= s
    return StandardizedDesign(Z=Z, dropped=dropped)


def residualize(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project Y onto the orthogonal complement of the column space of X.

    Raises ShapeMismatchError unless X has one row per entry of Y and fewer
    columns than rows, and RankDeficientCovariatesError when X is
    column-rank deficient.
    """
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim != 1 or X.ndim != 2 or X.shape[0] != Y.size:
        raise ShapeMismatchError(
            f"covariates {X.shape} do not align with phenotype of length {Y.size}"
        )
    n, p = X.shape
    if p >= n:
        raise ShapeMismatchError(f"need p < n covariates, got p={p}, n={n}")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = max(n, p) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    if diag.size == 0 or (diag <= tol).any():
        raise RankDeficientCovariatesError(
            f"covariate matrix has column rank < {p} (tolerance {tol:.3e})"
        )
    return Y - Q @ (Q.T @ Y)


def kinship(Z) -> np.ndarray:
    """Kinship matrix R = Z Z' / N, exactly symmetric: NumPy forms the product
    of a C- or F-contiguous Zm with its transpose as one symmetric update."""
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    if Zm.ndim != 2:
        raise ShapeMismatchError("design matrix must be 2-D")
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


def eigendecompose(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, tiny negatives clamped to 0) and eigenvectors.

    Columns of the returned U are the eigenvectors of the corresponding
    eigenvalues, so U diag(lambda) U' reconstructs R.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got {R.shape}")
    if not np.isfinite(R).all():
        raise DataError("matrix has non-finite (nan or inf) entries")
    if _asymmetry(R) > 1e-10:
        raise ShapeMismatchError("matrix is not symmetric within 1e-10")
    try:
        lam, U = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    lam = lam[::-1].copy()
    U = U[:, ::-1].copy()
    small_negative = (lam < 0.0) & (lam >= -EIGENVALUE_CLAMP_TOL)
    lam[small_negative] = 0.0
    return lam, U


def rotate(U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rotate observations into the eigenbasis: returns U'Y."""
    U = np.asarray(U, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if U.ndim != 2 or Y.ndim != 1 or U.shape[0] != Y.size:
        raise ShapeMismatchError(f"cannot rotate length-{Y.size} vector by {U.shape}")
    return U.T @ Y


def decompose(Z, Y: np.ndarray, keep_eigvecs: bool = False) -> SpectralDecomposition:
    """Full spectral pipeline: kinship, eigendecomposition, rotation.

    With N >= n, or when the eigenvectors are kept, this is
    ``eigendecompose(kinship(Z))`` followed by ``rotate``. With N < n the
    n x n kinship has at least n - N zero eigenvalues, so the N x N Gram
    Z'Z is decomposed instead (see ``_decompose_gram``).
    """
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    if Zm.ndim != 2 or 0 in Zm.shape:
        raise ShapeMismatchError(f"design matrix must be 2-D and non-empty, got {Zm.shape}")
    n, N = Zm.shape
    if N < n and not keep_eigvecs:
        lam, y_rot = _decompose_gram(Zm, Y)
        return SpectralDecomposition(lam, y_rot)
    lam, U = eigendecompose(kinship(Zm))
    return SpectralDecomposition(lam, rotate(U, Y), U if keep_eigvecs else None)


def _decompose_gram(Zm: np.ndarray, Y) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and rotated observations of R = Z Z'/N from the Gram side.

    ``kinship(Z')`` = Z'Z/n has eigenpairs (nu, V); R's nonzero eigenvalues
    are mu = (n/N) nu with eigenvectors U1 = Z V / sqrt(n nu). Eigenvalues
    at or below EIGENVALUE_CLAMP_TOL join the null block. The estimator
    depends on the spectrum only through the pairs (lambda_i, y_i^2), so
    any orthonormal basis of the null space gives the same fit; the one
    chosen puts the whole null mass ||Y - U1 U1'Y||^2 on its first vector.
    The mass is taken from the residual, not as ||Y||^2 - ||U1'Y||^2,
    which cancels when the mass is small.
    """
    Y = np.asarray(Y, dtype=np.float64)
    n, N = Zm.shape
    zy = rotate(Zm, Y)  # Z'Y
    nu, V = eigendecompose(kinship(Zm.T))
    mu = nu * (n / N)
    r = int(np.count_nonzero(mu > EIGENVALUE_CLAMP_TOL))
    V1, scale = V[:, :r], np.sqrt(n * nu[:r])
    top = (V1.T @ zy) / scale
    residual = Y - Zm @ (V1 @ (top / scale))
    lam = np.zeros(n)
    lam[:r] = mu[:r]
    y_rot = np.zeros(n)
    y_rot[:r] = top
    y_rot[r] = np.sqrt(residual @ residual)
    return lam, y_rot


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


def _bulk_quadrature(a: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes mapped onto [0, upper] in the theta variable.
    x, w = _gauss_legendre()
    theta, wt = 0.5 * upper * (x + 1.0), 0.5 * upper * w
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
    lam, weights = _bulk_quadrature(law.a, np.pi)
    values = np.asarray(f(lam), dtype=np.float64)
    atom = law.mass_at_zero
    atom_term = atom * float(f(np.float64(0.0))) if atom > 0.0 else 0.0
    total = float(np.dot(values, weights)) + atom_term
    if not np.isfinite(total):
        raise NumericalFailureError("integrand produced non-finite values")
    return total


def mp_cdf(law: MPLaw, x) -> float | np.ndarray:
    """Marchenko-Pastur distribution function at x.

    Computed as mass_at_zero * 1{x >= 0} plus the bulk integral up to x,
    evaluated by Gauss-Legendre on the theta interval [0, theta_x], which
    keeps the integrand smooth for every x.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty(xs.shape, dtype=np.float64)
    sqrt_a = np.sqrt(law.a)
    for i, xi in enumerate(xs.ravel()):
        if xi < 0.0:
            out.ravel()[i] = 0.0
        elif xi >= law.a_plus:
            out.ravel()[i] = 1.0
        elif xi <= law.a_minus:
            out.ravel()[i] = law.mass_at_zero
        else:
            cos_theta = (1.0 + law.a - xi) / (2.0 * sqrt_a)
            theta_x = float(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
            _, weights = _bulk_quadrature(law.a, theta_x)
            out.ravel()[i] = law.mass_at_zero + float(weights.sum())
    if not np.isfinite(out).all():
        raise NumericalFailureError("CDF quadrature produced non-finite values")
    return float(out[0]) if scalar else out
