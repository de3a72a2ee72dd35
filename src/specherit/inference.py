"""Asymptotic standard errors and confidence intervals for the heritability.

Two regimes:

* non-sparse (q = 1): the pivot gamma_n * sqrt(n/2) * (eta_hat - eta*) is
  asymptotically standard normal, giving SE = sqrt(2 / (n gamma_n^2)) with
  gamma_n^2 the empirical spectral variance of the sensitivity kernel g;

* sparse (q < 1): the asymptotic variance of sqrt(n) (eta_hat - eta*)
  acquires a nonnegative inflation term driven by the assumed proportion q
  of non-null effects, tau^2 = 2/gamma^2 + 3 a^2 eta^2 / gamma^4 (1/q - 1) S.

Empirical plug-ins replace the limiting spectral integrals by eigenvalue
averages; the limiting versions are available through the Marchenko-Pastur
quadrature for convergence checks. The exact conditional variance of
quadratic forms y' H y is also exposed as an oracle for tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ShapeMismatchError,
    UnidentifiableModelError,
)
from .likelihood import SolverResult, g
from .spectral import MPLaw, mp_integrate


def gamma_n2(eta: float, lambdas) -> float:
    """Empirical variance of g(eta, lambda) over the spectrum."""
    values = g(eta, np.asarray(lambdas, dtype=np.float64))
    return float(np.mean(values**2) - np.mean(values) ** 2)


def gamma2_limit(a: float, eta: float, order: int = 512) -> float:
    """Limiting spectral variance of g under the Marchenko-Pastur law."""
    law = MPLaw(a)
    mean = mp_integrate(law, lambda lam: g(eta, lam), order=order)
    second = mp_integrate(law, lambda lam: g(eta, lam) ** 2, order=order)
    return second - mean**2


def se_q1(gamma_n2: float, n: int) -> float:
    """Standard error of eta_hat in the non-sparse (q = 1) regime."""
    if not gamma_n2 > 0.0:
        raise UnidentifiableModelError(
            f"zero spectral variance (gamma_n2={gamma_n2}): eta is unidentifiable"
        )
    return float(np.sqrt(2.0 / (n * gamma_n2)))


def s_empirical(eta: float, lambdas) -> float:
    """Empirical version of the sparse-variance factor S.

    Squared difference between the eigenvalue average of
    lam (lam-1) / (eta (lam-1) + 1)^2 and the product of the averages of
    lam / (eta (lam-1) + 1) and (lam-1) / (eta (lam-1) + 1).
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    d = eta * (lam - 1.0) + 1.0
    first = np.mean(lam * (lam - 1.0) / d**2)
    second = np.mean(lam / d) * np.mean((lam - 1.0) / d)
    return float((first - second) ** 2)


def s_limit(a: float, eta: float, order: int = 512) -> float:
    """Limiting version of S with Marchenko-Pastur integrals."""
    law = MPLaw(a)
    first = mp_integrate(law, lambda lam: lam * (lam - 1.0) / (eta * (lam - 1.0) + 1.0) ** 2, order=order)
    second = mp_integrate(law, lambda lam: lam / (eta * (lam - 1.0) + 1.0), order=order)
    third = mp_integrate(law, lambda lam: g(eta, lam), order=order)
    return float((first - second * third) ** 2)


def tau2(a: float, eta: float, q: float, gamma2: float, S: float) -> float:
    """Asymptotic variance of sqrt(n)(eta_hat - eta*) under sparsity.

    Equals 2/gamma2 plus 3 a^2 eta^2 / gamma2^2 * (1/q - 1) * S; the
    second term vanishes at q = 1, recovering the non-sparse variance.
    """
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"q must be in (0, 1], got {q}")
    if not gamma2 > 0.0:
        raise UnidentifiableModelError(f"gamma2 must be positive, got {gamma2}")
    if S < 0.0:
        raise ConfigurationError(f"S must be >= 0, got {S}")
    return 2.0 / gamma2 + 3.0 * a**2 * eta**2 / gamma2**2 * (1.0 / q - 1.0) * S


# Rational minimax approximation PPND16 (Wichura's algorithm AS 241) for the
# standard normal quantile function; absolute error below 1e-15 on (0, 1).
_AS241_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_AS241_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_AS241_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_AS241_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_AS241_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_AS241_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, r: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def normal_quantile(p: float) -> float:
    """Standard normal quantile by Wichura's AS 241 (PPND16) approximation."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile level must be in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_AS241_A, r) / _poly(_AS241_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = np.sqrt(-np.log(r))
    if r <= 5.0:
        r -= 1.6
        value = _poly(_AS241_C, r) / _poly(_AS241_D, r)
    else:
        r -= 5.0
        value = _poly(_AS241_E, r) / _poly(_AS241_F, r)
    return float(-value if q < 0.0 else value)


def confidence_interval(eta_hat: float, se: float, level: float) -> tuple[float, float]:
    """Normal-approximation interval for the heritability, clipped to [0, 1]."""
    if not 0.0 <= eta_hat <= 1.0:
        raise ConfigurationError(f"eta_hat must be in [0, 1], got {eta_hat}")
    if not (math.isfinite(se) and se >= 0.0):
        raise ConfigurationError(f"standard error must be finite and >= 0, got {se}")
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must be in (0, 1), got {level}")
    z = normal_quantile(0.5 * (1.0 + level))
    lo = max(0.0, eta_hat - z * se)
    hi = min(1.0, eta_hat + z * se)
    return lo, hi


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


@dataclass
class EstimateReport:
    """Full inferential output for one estimation run."""

    eta_hat: float
    sigma2_hat: float
    gamma_n2: float
    se_q1: float
    ci_level: float
    ci_lo: float
    ci_hi: float
    a: float
    n: int
    N: int
    solver: dict
    q_assumed: float | None = None
    tau_n2: float | None = None
    se_sparse: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "eta_hat": self.eta_hat,
            "sigma2_hat": self.sigma2_hat,
            "gamma_n2": self.gamma_n2,
            "se_q1": self.se_q1,
            "ci_level": self.ci_level,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "a": self.a,
            "n": self.n,
            "N": self.N,
            "solver": self.solver,
        }
        if self.q_assumed is not None:
            doc["q_assumed"] = self.q_assumed
            doc["tau_n2"] = self.tau_n2
            doc["se_sparse"] = self.se_sparse
        return doc


def build_report(
    lambdas,
    y_rot,
    n_markers: int,
    solver_result: SolverResult,
    q_assumed: float | None = None,
    ci_level: float = 0.95,
) -> EstimateReport:
    """Assemble standard errors and a confidence interval around a solve.

    The interval uses the assumed-q sparse standard error when a q
    assumption is supplied (identical to the q = 1 interval at q = 1) and
    the non-sparse standard error otherwise. ``n_markers`` must be a
    positive integer (not a bool), and ``lambdas`` and ``y_rot`` non-empty
    vectors of one length.
    """
    if isinstance(n_markers, bool) or not isinstance(n_markers, numbers.Integral) or n_markers < 1:
        raise ConfigurationError(f"n_markers must be a positive integer, got {n_markers!r}")
    lam = np.asarray(lambdas, dtype=np.float64)
    y = np.asarray(y_rot)
    if lam.ndim != 1 or lam.size == 0 or y.shape != lam.shape:
        raise ShapeMismatchError(
            f"eigenvalues ({lam.shape}) and rotated observations ({y.shape}) must be "
            "non-empty vectors of one length"
        )
    n = lam.size
    a = n / n_markers
    eta_hat = solver_result.eta_hat
    g2 = gamma_n2(eta_hat, lam)
    se1 = se_q1(g2, n)

    tau_n2 = None
    se_sp = None
    if q_assumed is not None:
        if not 0.0 < q_assumed <= 1.0:
            raise ConfigurationError(f"assumed q must be in (0, 1], got {q_assumed}")
        tau_n2 = tau2(a, eta_hat, q_assumed, g2, s_empirical(eta_hat, lam))
        se_sp = float(np.sqrt(tau_n2 / n))

    ci_se = se_sp if se_sp is not None else se1
    lo, hi = confidence_interval(eta_hat, ci_se, ci_level)
    return EstimateReport(
        eta_hat=eta_hat,
        sigma2_hat=solver_result.sigma2_hat,
        gamma_n2=g2,
        se_q1=se1,
        ci_level=ci_level,
        ci_lo=lo,
        ci_hi=hi,
        a=a,
        n=n,
        N=int(n_markers),
        solver=solver_result.summary(),
        q_assumed=q_assumed,
        tau_n2=tau_n2,
        se_sparse=se_sp,
    )
