"""Asymptotic standard errors and confidence intervals for the heritability.

Two regimes:

* non-sparse (q = 1): the pivot gamma_n * sqrt(n/2) * (eta_hat - eta*) is
  asymptotically standard normal, giving SE = sqrt(2 / (n gamma_n^2)) with
  gamma_n^2 the empirical spectral variance of the sensitivity kernel g;

* sparse (q < 1): the asymptotic variance of sqrt(n) (eta_hat - eta*)
  acquires a nonnegative inflation term driven by the assumed proportion q
  of non-null effects, tau^2 = 2/gamma^2 + 3 a^2 eta^2 / gamma^4 (1/q - 1) S.
  Since lambda / d = 1 + (1 - eta) g with d = eta (lambda - 1) + 1, the
  paper's S = Cov(lambda / d, g)^2 is ((1 - eta) gamma^2)^2 under any
  spectral law, and the inflation term is 3 a^2 eta^2 (1 - eta)^2 (1/q - 1):
  it needs no spectrum.

Empirical plug-ins replace the limiting spectral integrals by eigenvalue
averages; the limiting versions are available through the Marchenko-Pastur
quadrature for convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import (
    ConfigurationError, UnidentifiableModelError, _check_level, _check_number, _check_q,
)
from .likelihood import SolverResult, _check_etas, _eigenvalues, _pair, g
from .spectral import MPLaw, mp_integrate


def gamma_n2(eta: float, lambdas) -> float:
    """Empirical variance of g(eta, lambda) over the spectrum."""
    return _gamma_n2(eta, _eigenvalues(lambdas))


def _gamma_n2(eta: float, lam: np.ndarray) -> float:
    """``gamma_n2`` at eta for a checked spectrum, with ``g``'s checks: the
    kernel g = (lam - 1) / d and its square, summed in one reduction."""
    eta = float(eta)
    c = lam - 1.0
    _check_etas(eta, c)
    terms = np.empty((2, lam.size))
    kernel = np.divide(c, eta * c + 1.0, out=terms[0])
    np.multiply(kernel, kernel, out=terms[1])
    means = np.add.reduce(terms, axis=1) / lam.size
    return float(means[1] - means[0] ** 2)


def gamma2_limit(a: float, eta: float) -> float:
    """Limiting spectral variance of g under the Marchenko-Pastur law."""
    law = MPLaw(a)
    mean = mp_integrate(law, lambda lam: g(eta, lam))
    second = mp_integrate(law, lambda lam: g(eta, lam) ** 2)
    return second - mean**2


def se_q1(gamma_n2: float, n: int) -> float:
    """Standard error of eta_hat in the non-sparse (q = 1) regime."""
    if not gamma_n2 > 0.0:
        raise UnidentifiableModelError(
            f"zero spectral variance (gamma_n2={gamma_n2}): eta is unidentifiable"
        )
    return math.sqrt(2.0 / (n * gamma_n2))


def s_empirical(eta: float, lambdas) -> float:
    """Empirical version of the sparse-variance factor S, ((1 - eta) gamma_n2)^2.

    The paper defines S as the squared difference between the eigenvalue
    average of lam (lam-1) / d^2 and the product of the averages of lam / d
    and (lam-1) / d, with d = eta (lam-1) + 1: the squared covariance of
    lam / d and g. As lam / d = 1 + (1 - eta) g, that covariance is
    (1 - eta) times the variance of g. Like ``g``, it requires eta in
    [0, 1) and positive denominators.
    """
    return (gamma_n2(eta, lambdas) * (1.0 - eta)) ** 2  # gamma_n2 checks eta first


def s_limit(a: float, eta: float) -> float:
    """Limiting version of S, ((1 - eta) gamma2_limit)^2, by ``s_empirical``'s
    identity under the Marchenko-Pastur law."""
    return (gamma2_limit(a, eta) * (1.0 - eta)) ** 2


def tau2(a: float, eta: float, q: float, gamma2: float) -> float:
    """Asymptotic variance of sqrt(n)(eta_hat - eta*) under sparsity.

    The paper's 2/gamma2 + 3 a^2 eta^2 / gamma2^2 * (1/q - 1) * S, with
    S = ((1 - eta) gamma2)^2 (see ``s_empirical``): 2/gamma2 plus
    3 a^2 eta^2 (1 - eta)^2 (1/q - 1). The second term vanishes at q = 1,
    recovering the non-sparse variance, and does not depend on the spectrum.
    """
    _check_q(q)
    if not gamma2 > 0.0:
        raise UnidentifiableModelError(f"gamma2 must be positive, got {gamma2}")
    return 2.0 / gamma2 + 3.0 * a**2 * eta**2 * (1.0 - eta) ** 2 * (1.0 / q - 1.0)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, ``statistics.NormalDist().inv_cdf(p)``."""
    _check_level(p, "quantile level")
    return NormalDist().inv_cdf(p)


def confidence_interval(eta_hat: float, se: float, level: float) -> tuple[float, float]:
    """Normal-approximation interval for the heritability, clipped to [0, 1]."""
    if not 0.0 <= eta_hat <= 1.0:
        raise ConfigurationError(f"eta_hat must be in [0, 1], got {eta_hat}")
    if not (math.isfinite(se) and se >= 0.0):
        raise ConfigurationError(f"standard error must be finite and >= 0, got {se}")
    _check_level(level)
    z = normal_quantile(0.5 * (1.0 + level))
    lo = max(0.0, eta_hat - z * se)
    hi = min(1.0, eta_hat + z * se)
    return lo, hi


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
        """The fields in declaration order, less the sparse three when no q is assumed.

        The ``solver`` dict is copied, so the document shares no mutable
        value with the report.
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["solver"] = dict(self.solver)
        if self.q_assumed is None:
            del doc["q_assumed"], doc["tau_n2"], doc["se_sparse"]
        return doc


def _check_report_options(q_assumed: float | None, ci_level: float) -> None:
    """Reject the q and level that ``build_report`` would reject, before any work."""
    if q_assumed is not None:
        _check_q(q_assumed)
    _check_level(ci_level)


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
    positive integer (not a bool), and ``lambdas`` and ``y_rot`` pass the
    solver's checks: a non-empty finite vector, and a finite vector of its
    length that is not all zero.
    """
    if _check_number("n_markers", n_markers, integer=True) < 1:
        raise ConfigurationError(f"n_markers must be a positive integer, got {n_markers!r}")
    lam = _pair(lambdas, y_rot)[0]
    n = lam.size
    a = n / n_markers
    eta_hat = solver_result.eta_hat
    g2 = _gamma_n2(eta_hat, lam)
    se1 = se_q1(g2, n)

    tau_n2 = se_sp = None
    if q_assumed is not None:
        tau_n2 = tau2(a, eta_hat, q_assumed, g2)
        se_sp = math.sqrt(tau_n2 / n)

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
