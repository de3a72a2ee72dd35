import copy
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from specherit import (
    ConfigurationError,
    DataError,
    MPLaw,
    NumericalFailureError,
    ShapeMismatchError,
    UnidentifiableModelError,
    build_report,
    decompose,
    gamma_n2,
    mp_integrate,
    newton_estimate,
    replicate_rng,
    se_q1,
    tau2,
)
from specherit.inference import confidence_interval, normal_quantile

from conftest import cell, riemann_mp, seeded_spectrum, var_quadform_oracle
from test_likelihood import GOLDEN_FITS


# The kernel, its Marchenko-Pastur variance and the paper's S, as oracles:
# S = Cov(lam / d, g)^2 = ((1 - eta) gamma^2)^2, since lam / d = 1 + (1 - eta) g.


def g(eta, lam):
    """The sensitivity kernel (lam - 1) / (eta (lam - 1) + 1), unchecked."""
    c = np.asarray(lam, dtype=np.float64) - 1.0
    return c / (eta * c + 1.0)


def gamma2_limit(a, eta):
    """Limiting spectral variance of g under the Marchenko-Pastur law."""
    law = MPLaw(a)
    mean = mp_integrate(law, lambda lam: g(eta, lam))
    return mp_integrate(law, lambda lam: g(eta, lam) ** 2) - mean**2


def s_empirical(eta, lambdas):
    """S from the identity on the spectrum; ``gamma_n2`` checks its inputs."""
    return (gamma_n2(eta, lambdas) * (1.0 - eta)) ** 2


def s_limit(a, eta):
    """S from the identity under the Marchenko-Pastur law."""
    return (gamma2_limit(a, eta) * (1.0 - eta)) ** 2


@pytest.fixture(scope="module")
def wide_gaussian_spectrum():
    # one large spectrum shared by the empirical-vs-limit convergence tests
    rng = replicate_rng(777)
    n, N = 2000, 4000
    Z = rng.standard_normal((n, N))
    return decompose(Z, np.zeros(n)).lambdas


# ---------------------------------------------------------------------------
# spectral variance of g
# ---------------------------------------------------------------------------


def test_gamma_n2_flat_and_two_point():
    assert gamma_n2(0.3, np.full(6, 1.7)) == pytest.approx(0.0, abs=1e-14)
    assert gamma_n2(0.0, np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_gamma_n2_matches_two_pass_variance():
    rng = replicate_rng(5)
    lam = rng.uniform(0.0, 3.0, 200)
    eta = 0.4
    values = g(eta, lam)
    naive = np.sum((values - values.mean()) ** 2) / values.size
    assert abs(gamma_n2(eta, lam) - naive) <= 1e-12


def test_gamma2_limit_at_eta_zero_is_a():
    for a in (0.25, 0.5, 2.0):
        assert gamma2_limit(a, 0.0) == pytest.approx(a, abs=1e-8)
        oracle = riemann_mp(a, lambda lam: (lam - 1.0) ** 2, points=10**6) - (
            riemann_mp(a, lambda lam: lam - 1.0, points=10**6)
        ) ** 2
        assert gamma2_limit(a, 0.0) == pytest.approx(oracle, abs=1e-6)


def test_gamma2_limit_degenerate_spectrum():
    assert abs(gamma2_limit(1e-6, 0.5)) < 1e-4


def test_gamma_n2_converges_to_limit(wide_gaussian_spectrum):
    emp = gamma_n2(0.5, wide_gaussian_spectrum)
    lim = gamma2_limit(0.5, 0.5)
    assert abs(emp - lim) <= 0.05 * lim


# ---------------------------------------------------------------------------
# standard errors
# ---------------------------------------------------------------------------


def test_se_q1_values_and_scaling():
    assert se_q1(2.0, 100) == pytest.approx(0.1)
    assert se_q1(2.0, 400) == pytest.approx(0.05)
    with pytest.raises(UnidentifiableModelError):
        se_q1(0.0, 100)


def test_s_empirical_cases():
    assert s_empirical(0.4, np.ones(5)) == pytest.approx(0.0, abs=1e-14)
    assert s_empirical(0.0, np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_s_empirical_permutation_invariance():
    rng = replicate_rng(6)
    lam = rng.uniform(0.0, 3.0, 100)
    perm = rng.permutation(100)
    assert s_empirical(0.6, lam) == pytest.approx(s_empirical(0.6, lam[perm]), rel=1e-12)
    assert gamma_n2(0.6, lam) == pytest.approx(gamma_n2(0.6, lam[perm]), rel=1e-12)


@pytest.mark.parametrize("statistic", [gamma_n2, s_empirical])
@pytest.mark.parametrize(
    "lambdas, error",
    [
        pytest.param([], ShapeMismatchError, id="empty"),
        pytest.param([[0.5, 1.5], [1.0, 2.0]], ShapeMismatchError, id="matrix"),
        pytest.param([0.5, np.nan, 2.0], DataError, id="nan"),
        pytest.param([0.5, np.inf, 2.0], DataError, id="inf"),
    ],
)
def test_spectral_statistics_reject_bad_spectra(statistic, lambdas, error):
    with pytest.raises(error):
        statistic(0.5, lambdas)


@pytest.mark.parametrize(
    "eta, lambdas, error",
    [
        pytest.param(1.5, [0.0, 1.0, 2.0], ConfigurationError, id="eta-above-1"),
        pytest.param(-3.0, [0.0, 1.0, 2.0], ConfigurationError, id="eta-negative"),
        pytest.param(1.0, [0.0, 1.0, 2.0], ConfigurationError, id="eta-1"),
        pytest.param(0.5, [-2.0, 1.0, 2.0], NumericalFailureError, id="non-positive-d"),
    ],
)
def test_s_empirical_checks_eta_like_g(eta, lambdas, error):
    """S reads the spectrum through ``gamma_n2``, which applies g's eta rule."""
    with pytest.raises(error):
        s_empirical(eta, lambdas)


def test_s_empirical_converges_to_limit(wide_gaussian_spectrum):
    emp = s_empirical(0.5, wide_gaussian_spectrum)
    lim = s_limit(0.5, 0.5)
    assert abs(emp - lim) <= 0.05 * lim


def three_mean_s(eta, lam):
    """The paper's S: the squared difference between the mean of
    lam (lam - 1) / d^2 and the product of the means of lam / d and g."""
    d = eta * (lam - 1.0) + 1.0
    return (np.mean(lam * (lam - 1.0) / d**2) - np.mean(lam / d) * np.mean((lam - 1.0) / d)) ** 2


@pytest.mark.parametrize("seed", range(8))
def test_s_empirical_equals_the_three_mean_s(seed):
    """S = Cov(lam / d, g)^2 = ((1 - eta) gamma_n2)^2, since lam / d = 1 + (1 - eta) g;
    spectra with a block of zero eigenvalues (N < n) included."""
    rng = replicate_rng(seed)
    n = int(rng.integers(20, 400))
    lam = rng.uniform(0.0, 4.0, n)
    lam[: int(rng.integers(0, n // 2))] = 0.0
    for eta in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, float(rng.uniform(0.0, 0.999))):
        assert s_empirical(eta, lam) == pytest.approx(three_mean_s(eta, lam), rel=1e-12, abs=0)


@pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
def test_s_limit_equals_the_three_mp_integrals(a):
    law = MPLaw(a)
    for eta in (0.0, 0.3, 0.7):
        def d(lam):
            return eta * (lam - 1.0) + 1.0
        first = mp_integrate(law, lambda lam: lam * (lam - 1.0) / d(lam) ** 2)
        second = mp_integrate(law, lambda lam: lam / d(lam))
        third = mp_integrate(law, lambda lam: g(eta, lam))
        assert abs(s_limit(a, eta) - (first - second * third) ** 2) <= 1e-9


def test_tau2_identities():
    gamma2 = 0.7
    assert tau2(0.5, 0.6, 1.0, gamma2) == 2.0 / gamma2
    assert tau2(0.5, 0.0, 0.2, gamma2) == 2.0 / gamma2
    a, eta, q = 0.5, 0.7, 0.5
    expected = 2.0 / gamma2 + 3.0 * a**2 * eta**2 * (1.0 - eta) ** 2 * (1.0 / q - 1.0)
    assert tau2(a, eta, q, gamma2) == expected
    # the paper's form, with S = ((1 - eta) gamma2)^2
    S = ((1.0 - eta) * gamma2) ** 2
    assert tau2(a, eta, q, gamma2) == pytest.approx(
        2.0 / gamma2 + 3.0 * a**2 * eta**2 / gamma2**2 * (1.0 / q - 1.0) * S, rel=1e-14)
    with pytest.raises(UnidentifiableModelError):
        tau2(0.5, 0.5, 0.5, 0.0)
    with pytest.raises(ConfigurationError):
        tau2(0.5, 0.5, 1.5, gamma2)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(0.01, 2.0),
    eta=st.floats(0.0, 0.95),
    gamma2=st.floats(1e-3, 10.0),
    q1=st.floats(0.01, 1.0),
    q2=st.floats(0.01, 1.0),
)
def test_tau2_monotone_nonincreasing_in_q(a, eta, gamma2, q1, q2):
    lo, hi = sorted((q1, q2))
    assert tau2(a, eta, lo, gamma2) >= tau2(a, eta, hi, gamma2)


def test_tau2_consistent_with_se_q1():
    gamma2, n = 0.37, 523
    assert se_q1(gamma2, n) == pytest.approx(np.sqrt(tau2(0.5, 0.4, 1.0, gamma2) / n))


# ---------------------------------------------------------------------------
# normal quantile and intervals
# ---------------------------------------------------------------------------


def test_normal_quantile_against_scipy():
    grid = np.concatenate([
        np.linspace(1e-8, 1 - 1e-8, 1001),
        [1e-12, 1e-300, 1 - 1e-12],
    ])
    for p in grid:
        assert abs(normal_quantile(float(p)) - scipy.special.ndtri(p)) < 1e-9


def test_normal_quantile_tabulated():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975))
    with pytest.raises(ConfigurationError):
        normal_quantile(0.0)


def test_normal_quantile_golden_values():
    # recorded before normal_quantile moved to statistics.NormalDist; a one-ulp
    # change here moves every reported interval
    assert normal_quantile(0.95) == 1.6448536269514715
    assert normal_quantile(0.975) == 1.9599639845400536
    assert normal_quantile(0.995) == 2.5758293035489


def test_confidence_interval_cases():
    assert confidence_interval(0.4, 0.0, 0.95) == (0.4, 0.4)
    lo, hi = confidence_interval(0.5, 0.1, 0.95)
    assert lo == pytest.approx(0.30400360154594585, abs=1e-9)
    assert hi == pytest.approx(0.69599639845405415, abs=1e-9)
    assert (round(lo, 3), round(hi, 3)) == (0.304, 0.696)
    assert confidence_interval(0.98, 0.1, 0.95)[1] == 1.0
    assert confidence_interval(0.01, 0.1, 0.95)[0] == 0.0
    nan, inf = float("nan"), float("inf")
    bad = [(0.5, nan), (0.5, inf), (0.5, -0.1), (nan, 0.1), (inf, 0.1), (1.5, 0.1), (-0.2, 0.1)]
    for eta_hat, se in bad:
        with pytest.raises(ConfigurationError):
            confidence_interval(eta_hat, se, 0.95)


# ---------------------------------------------------------------------------
# quadratic-form variance oracle
# ---------------------------------------------------------------------------


def _svd_inputs(seed, n, N):
    rng = replicate_rng(seed)
    Z = rng.standard_normal((n, N))
    U, s, Vt = np.linalg.svd(Z / np.sqrt(N), full_matrices=True)
    return Z, U, s**2, Vt.T


def test_var_quadform_q1_closed_form_and_zero_H():
    _, _, lam, V = _svd_inputs(1, 5, 8)
    h = np.array([0.3, -1.0, 0.7, 0.2, 1.5])
    eta, sigma2 = 0.6, 1.3
    value = var_quadform_oracle(h, lam, V, eta, sigma2, 1.0)
    expected = 2.0 * sigma2**2 * np.sum(h**2 * ((1 - eta) + eta * lam) ** 2)
    assert value == expected
    assert var_quadform_oracle(np.zeros(5), lam, V, eta, sigma2, 0.5) == 0.0


def test_var_quadform_trace_bound_dominates():
    _, _, lam, V = _svd_inputs(2, 6, 9)
    h = np.linspace(-1.0, 1.0, 6)
    exact = var_quadform_oracle(h, lam, V, 0.5, 1.0, 0.4)
    bound = var_quadform_oracle(h, lam, V, 0.5, 1.0, 0.4, use_trace_bound=True)
    assert bound >= exact


def test_var_quadform_accepts_diagonal_matrix():
    _, _, lam, V = _svd_inputs(3, 4, 7)
    h = np.array([1.0, 2.0, 0.5, -0.2])
    assert var_quadform_oracle(np.diag(h), lam, V, 0.3, 1.0, 0.5) == pytest.approx(
        var_quadform_oracle(h, lam, V, 0.3, 1.0, 0.5)
    )


def test_var_quadform_against_monte_carlo():
    # light version of the acceptance check: 50k draws, 10% tolerance
    n, N, q, eta, sigma2 = 5, 8, 0.5, 0.6, 1.0
    Z, U, lam, V = _svd_inputs(4, n, N)
    h = np.array([0.8, -0.5, 1.2, 0.1, -1.0])
    predicted = var_quadform_oracle(h, lam, V, eta, sigma2, q)

    rng = replicate_rng(40)
    draws = 50_000
    sigma_u = np.sqrt(eta * sigma2 / (N * q))
    A = (U.T @ Z) * sigma_u  # maps effect draws into the rotated basis
    u = rng.standard_normal((draws, N)) * (rng.random((draws, N)) < q)
    e = rng.standard_normal((draws, n)) * np.sqrt((1 - eta) * sigma2)
    y_rot = u @ A.T + e
    quad = (y_rot**2 * h).sum(axis=1)
    assert abs(quad.var() - predicted) <= 0.10 * predicted


# ---------------------------------------------------------------------------
# report assembly and the CLT pivot
# ---------------------------------------------------------------------------


def test_build_report_sparse_se_dominates(small_instance):
    lam, y = small_instance
    result = newton_estimate(lam, y)
    plain = build_report(lam, y, n_markers=120, solver_result=result)
    sparse = build_report(lam, y, n_markers=120, solver_result=result, q_assumed=0.5)
    q1_again = build_report(lam, y, n_markers=120, solver_result=result, q_assumed=1.0)
    assert plain.se_sparse is None
    assert sparse.se_sparse >= sparse.se_q1
    assert q1_again.se_sparse == pytest.approx(q1_again.se_q1, rel=1e-12)
    assert sparse.ci_lo <= sparse.eta_hat <= sparse.ci_hi
    doc = sparse.to_dict()
    assert {"eta_hat", "se_q1", "tau_n2", "se_sparse", "ci_lo", "ci_hi"} <= set(doc)


@pytest.mark.parametrize(
    "bad, error",
    [
        pytest.param(lambda lam, y: {"n_markers": 0}, ConfigurationError, id="N-zero"),
        pytest.param(lambda lam, y: {"n_markers": -5}, ConfigurationError, id="N-negative"),
        pytest.param(lambda lam, y: {"n_markers": 2.5}, ConfigurationError, id="N-fraction"),
        pytest.param(lambda lam, y: {"n_markers": 120.0}, ConfigurationError, id="N-float"),
        pytest.param(lambda lam, y: {"n_markers": True}, ConfigurationError, id="N-bool"),
        pytest.param(lambda lam, y: {"n_markers": "120"}, ConfigurationError, id="N-str"),
        pytest.param(lambda lam, y: {"y_rot": y[:-1]}, ShapeMismatchError, id="y-short"),
        pytest.param(lambda lam, y: {"y_rot": np.append(y, 1.0)}, ShapeMismatchError, id="y-long"),
        pytest.param(lambda lam, y: {"lambdas": [], "y_rot": []}, ShapeMismatchError, id="empty"),
        pytest.param(lambda lam, y: {"lambdas": np.append(lam[1:], np.nan)}, DataError, id="nan"),
        pytest.param(
            lambda lam, y: {"lambdas": lam.reshape(-1, 2), "y_rot": y.reshape(-1, 2)},
            ShapeMismatchError,
            id="matrix",
        ),
    ],
)
def test_build_report_rejects_bad_input(small_instance, bad, error):
    lam, y = small_instance
    kwargs = {"lambdas": lam, "y_rot": y, "n_markers": 120, **bad(lam, y)}
    with pytest.raises(error):
        build_report(solver_result=newton_estimate(lam, y), **kwargs)


def test_build_report_accepts_numpy_integer_markers(small_instance):
    lam, y = small_instance
    result = newton_estimate(lam, y)
    want = build_report(lam, y, n_markers=120, solver_result=result).to_dict()
    doc = build_report(lam, y, n_markers=np.int64(120), solver_result=result).to_dict()
    assert doc == want and type(doc["N"]) is int


def test_report_document_shares_no_mutable_value(small_instance):
    lam, y = small_instance
    report = build_report(lam, y, n_markers=120, solver_result=newton_estimate(lam, y))
    solver = copy.deepcopy(report.solver)
    doc = report.to_dict()
    doc["solver"]["converged"] = not doc["solver"]["converged"]
    doc["solver"]["rows"] = 99
    assert report.solver == solver
    assert report.to_dict()["solver"] == solver


# (seed, n, N, eta*) -> the report fields shared by every (q, level), the
# three sparse fields at q = 0.5, and (ci_lo, ci_hi) per (q, level); recorded
# before to_dict was built from the dataclass fields, and again when the
# certified solver, and later its polish-first order, moved the last bits
# of case "a-2", and when the sparse term was written without S, which
# moved the last bits of its q = 0.5 fields.
GOLDEN_REPORTS = [
    pytest.param(
        (1, 800, 1600, 0.5),
        {"eta_hat": 0.47434550067655, "sigma2_hat": 1.0324859443863175,
         "gamma_n2": 0.5555445644324328, "se_q1": 0.0670827029110982},
        {"a": 0.5, "n": 800, "N": 1600,
         "solver": {"eta_hat": 0.47434550067655, "sigma2_hat": 1.0324859443863175,
                    "newton_steps": 4, "converged": True, "clamped": False,
                    "gap": 3.752363797460134e-08, "rows": 25}},
        {"q_assumed": 0.5, "tau_n2": 3.6466997412604636, "se_sparse": 0.06751573651065046},
        {(None, 0.9): (0.36400427348752207, 0.584686727865578),
         (None, 0.95): (0.3428658189851973, 0.6058251823679027),
         (None, 0.99): (0.30155190875687815, 0.6471390925962219),
         (0.5, 0.9): (0.3632919966007067, 0.5853990047523934),
         (0.5, 0.95): (0.34201708872597913, 0.6066739126271209),
         (0.5, 0.99): (0.3004364881217302, 0.6482545132313698)},
        id="a-0.5",
    ),
    pytest.param(
        (2, 600, 300, 0.4),
        {"eta_hat": 0.42614537542776576, "sigma2_hat": 0.921504150264249,
         "gamma_n2": 0.5306075397054457, "se_q1": 0.07925974380792587},
        {"a": 2.0, "n": 600, "N": 300,
         "solver": {"eta_hat": 0.42614537542776576, "sigma2_hat": 0.921504150264249,
                    "newton_steps": 4, "converged": True, "clamped": False,
                    "gap": 3.6950563025994754e-08, "rows": 26}},
        {"q_assumed": 0.5, "tau_n2": 4.486894179246842, "se_sparse": 0.08647633760406025},
        {(None, 0.9): (0.29577469835405445, 0.5565160525014771),
         (None, 0.95): (0.27079913214035956, 0.581491618715172),
         (None, 0.99): (0.22198580473553184, 0.6303049461199997),
         (0.5, 0.9): (0.28390445787424734, 0.5683862929812842),
         (0.5, 0.95): (0.25665486820888095, 0.5956358826466506),
         (0.5, 0.99): (0.2033970909636397, 0.6488936598918918)},
        id="a-2",
    ),
    pytest.param(
        (3, 100, 1000, 0.8),
        {"eta_hat": 0.99, "sigma2_hat": 0.8466495211070313,
         "gamma_n2": 3.210525133324188, "se_q1": 0.07892724809028384},
        {"a": 0.1, "n": 100, "N": 1000,
         "solver": {"eta_hat": 0.99, "sigma2_hat": 0.8466495211070313,
                    "newton_steps": 0, "converged": True, "clamped": True,
                    "gap": 0.0, "rows": 15}},
        {"q_assumed": 0.5, "tau_n2": 0.6229539894105215, "se_sparse": 0.07892743435653547},
        {(None, 0.9): (0.860176229713398, 1.0),
         (None, 0.95): (0.835305436344186, 1.0),
         (None, 0.99): (0.7866968815205729, 1.0),
         (0.5, 0.9): (0.8601759233326784, 1.0),
         (0.5, 0.95): (0.8353050712690412, 1.0),
         (0.5, 0.99): (0.7866964017305037, 1.0)},
        id="clamped",
    ),
]


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("q", [None, 0.5])
@pytest.mark.parametrize("case, fit, shape, sparse, intervals", GOLDEN_REPORTS)
def test_build_report_golden_values(case, fit, shape, sparse, intervals, q, level):
    seed, n, N, eta_star = case
    lam, y = seeded_spectrum(seed, n, eta_star)
    report = build_report(lam, y, n_markers=N, solver_result=newton_estimate(lam, y),
                          q_assumed=q, ci_level=level)
    lo, hi = intervals[(q, level)]
    want = {**fit, "ci_level": level, "ci_lo": lo, "ci_hi": hi, **shape,
            **(sparse if q is not None else {})}
    doc = report.to_dict()
    assert doc == want
    assert list(doc) == list(want)  # key order is part of the report format


def fused_report_cases():
    """(seed, n, eta*, delta, N) of every ``GOLDEN_FITS`` spectrum, with
    N = 2n, and of every ``GOLDEN_REPORTS`` case."""
    for fit in GOLDEN_FITS:
        seed, n, eta_star, delta, _ = fit.values[0]
        yield pytest.param(seed, n, eta_star, delta, 2 * n, id=f"fit-{fit.id}")
    for report in GOLDEN_REPORTS:
        seed, n, N, eta_star = report.values[0]
        yield pytest.param(seed, n, eta_star, 0.01, N, id=f"report-{report.id}")


@pytest.mark.parametrize("seed, n, eta_star, delta, N", fused_report_cases())
def test_build_report_equals_the_standalone_formulas(seed, n, eta_star, delta, N):
    """``build_report`` takes g and its moments from one pass over the
    spectrum; each figure is the bits the standalone function returns."""
    lam, y = seeded_spectrum(seed, n, eta_star)
    result = newton_estimate(lam, y, delta=delta)
    report = build_report(lam, y, n_markers=N, solver_result=result, q_assumed=0.5)
    eta, g2 = result.eta_hat, gamma_n2(result.eta_hat, lam)
    assert report.gamma_n2 == g2
    assert report.se_q1 == se_q1(g2, n)
    assert report.tau_n2 == tau2(n / N, eta, 0.5, g2)
    assert report.se_sparse == math.sqrt(report.tau_n2 / n)


@pytest.mark.slow
def test_clt_pivot_gaussian_q1():
    # pivot gamma_n sqrt(n/2) (eta_hat - eta*) over 300 replicates at
    # eta* = 0.5, n = 500, N = 1000, gaussian design
    records = cell(0.5, 0.5, 1.0, 500, 300, "gaussian", seed=31415)
    pivots = np.array([r.pivot_q1 for r in records])
    assert abs(pivots.mean()) < 0.25
    assert 0.7 < pivots.var() < 1.3


@pytest.mark.slow
def test_sparse_pivot_gaussian():
    # sparse pivot sqrt(n) (eta_hat - eta*) / tau_n at q = 0.5, a = 0.5,
    # gaussian design; the mis-specified q=1 SE sits below the MC spread.
    # The cell (n=400, N=800, seed 12345, 300 replicates) is criterion 04's.
    records = cell(0.7, 0.5, 0.5, 400, 300, "gaussian")
    pivots = np.array([r.pivot_sparse for r in records])
    assert abs(pivots.mean()) < 0.25
    assert 0.7 < pivots.var() < 1.3
    eta_sd = np.array([r.eta_hat for r in records]).std(ddof=1)
    assert np.mean([r.se_q1 for r in records]) < eta_sd
