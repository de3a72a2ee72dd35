import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherit import (
    ConfigurationError,
    DegenerateDataError,
    SolverConfig,
    UnidentifiableModelError,
    d2loglik,
    dloglik,
    g,
    gamma_n2,
    grid_oracle,
    loglik,
    newton_estimate,
    profile_sigma2,
    replicate_rng,
)

from specherit.likelihood import loglik_grid

from conftest import simulated_spectrum


def finite_difference(fn, eta, h):
    return (fn(eta + h) - fn(eta - h)) / (2.0 * h)


def second_difference(fn, eta, h):
    return (fn(eta + h) - 2.0 * fn(eta) + fn(eta - h)) / h**2


def random_instance(seed):
    rng = replicate_rng(seed)
    n = int(rng.integers(20, 80))
    lam = rng.uniform(0.0, 3.0, n)
    y = rng.standard_normal(n)
    return lam, y


# ---------------------------------------------------------------------------
# pointwise formulas
# ---------------------------------------------------------------------------


def test_g_values():
    assert g(0.3, 1.0) == 0.0
    assert g(0.0, 2.5) == pytest.approx(1.5)
    assert g(0.5, 3.0) == pytest.approx(1.0)
    assert np.allclose(g(0.2, np.array([1.0, 2.0])), [0.0, 1.0 / 1.2])


def test_g_zero_eigenvalue_is_finite():
    assert g(0.5, 0.0) == pytest.approx(-2.0)


def test_profile_sigma2_cases():
    y = np.array([1.0, 3.0])
    lam = np.array([2.0, 0.5])
    assert profile_sigma2(0.0, lam, y) == pytest.approx(np.mean(y**2))
    assert profile_sigma2(0.7, np.ones(2), y) == pytest.approx(np.mean(y**2))
    assert profile_sigma2(0.5, np.array([2.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(4.0 / 3.0)
    with pytest.raises(DegenerateDataError):
        profile_sigma2(0.5, lam, np.zeros(2))


def test_loglik_values():
    y = np.array([1.0, 2.0])
    assert loglik(0.0, np.array([2.0, 0.5]), y) == pytest.approx(-np.log(np.mean(y**2)))
    assert loglik(0.3, np.ones(2), y) == pytest.approx(loglik(0.8, np.ones(2), y))
    # frozen two-term value: -log(4/3) - (log 1.5 + log 0.5)/2 = -log(4/3)/2
    expected = -math.log(4.0 / 3.0) - 0.5 * (math.log(1.5) + math.log(0.5))
    assert loglik(0.5, np.array([2.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(-0.5 * math.log(4.0 / 3.0))


def test_loglik_scale_shift():
    lam, y = simulated_spectrum(seed=3, n=40, N=80, eta_star=0.5)
    c = 3.7
    for eta in (0.0, 0.3, 0.8):
        assert loglik(eta, lam, c * y) == pytest.approx(loglik(eta, lam, y) - math.log(c**2))


def test_domain_checks():
    lam = np.array([2.0, 0.5])
    y = np.array([1.0, 1.0])
    with pytest.raises(ConfigurationError):
        loglik(1.0, lam, y)
    with pytest.raises(ConfigurationError):
        loglik(-0.1, lam, y)


# ---------------------------------------------------------------------------
# derivatives against finite differences
# ---------------------------------------------------------------------------


def test_derivatives_match_finite_differences():
    rng = replicate_rng(99)
    for trial in range(100):
        lam, y = random_instance(1000 + trial)
        eta = float(rng.uniform(0.05, 0.9))
        f = lambda e: loglik(e, lam, y)
        d1 = dloglik(eta, lam, y)
        d2 = d2loglik(eta, lam, y)
        fd1 = finite_difference(f, eta, 1e-6)
        fd2 = second_difference(f, eta, 1e-4)
        assert abs(d1 - fd1) <= 1e-4 * max(1.0, abs(fd1))
        assert abs(d2 - fd2) <= 1e-3 * max(1.0, abs(fd2))


def test_derivatives_flat_spectrum():
    y = np.array([1.0, 2.0, 3.0])
    assert dloglik(0.4, np.ones(3), y) == 0.0
    assert d2loglik(0.4, np.ones(3), y) == 0.0


def test_stationarity_and_concavity_at_maximizer():
    lam, y = simulated_spectrum(seed=12, n=500, N=1000, eta_star=0.5)
    result = newton_estimate(lam, y)
    assert 0.0 < result.eta_hat < 0.99
    assert abs(dloglik(result.eta_hat, lam, y)) < 1e-6
    assert d2loglik(result.eta_hat, lam, y) < 0.0


def test_second_derivative_limit_is_scale_free():
    # The curvature at the maximizer approaches -gamma_n^2 regardless of the
    # total variance: doubling sigma* leaves L'' unchanged.
    lam, y = simulated_spectrum(seed=5, n=800, N=1600, eta_star=0.5, design="gaussian")
    result = newton_estimate(lam, y)
    curvature = d2loglik(result.eta_hat, lam, y)
    assert curvature == pytest.approx(d2loglik(result.eta_hat, lam, 2.0 * y), rel=1e-10)
    assert curvature == pytest.approx(-gamma_n2(result.eta_hat, lam), rel=0.2)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(delta=0.6)
    with pytest.raises(ConfigurationError):
        SolverConfig(inits=(0.995,))
    with pytest.raises(ConfigurationError):
        SolverConfig(inits=())
    cfg = SolverConfig()
    assert cfg.upper == 0.99


def test_newton_matches_grid_oracle():
    for seed, eta_star, a in [(1, 0.3, 0.5), (2, 0.5, 0.5), (3, 0.7, 1.0), (4, 0.5, 0.1)]:
        n = 150
        lam, y = simulated_spectrum(seed=seed, n=n, N=round(n / a), eta_star=eta_star)
        result = newton_estimate(lam, y)
        oracle = grid_oracle(lam, y, 1e-4)
        assert abs(result.eta_hat - oracle) <= 2e-4
        assert result.sigma2_hat == profile_sigma2(min(result.eta_hat, 1 - 1e-12), lam, y)


def test_newton_clamped_instance():
    # seed chosen so the likelihood maximizer sits on the upper boundary
    lam, y = simulated_spectrum(seed=13, n=100, N=200, eta_star=0.85)
    result = newton_estimate(lam, y)
    assert result.clamped
    assert result.eta_hat == 0.99
    assert grid_oracle(lam, y, 1e-3) == pytest.approx(0.99)
    # the boundary value follows delta: [0, 0.95] reports 0.95
    narrow = newton_estimate(lam, y, SolverConfig(delta=0.05))
    assert narrow.clamped
    assert narrow.eta_hat == 0.95
    assert narrow.sigma2_hat == profile_sigma2(0.95, lam, y)


def test_newton_grid_dominance_invariant():
    for seed in range(5):
        lam, y = simulated_spectrum(seed=seed, n=120, N=240, eta_star=0.4)
        result = newton_estimate(lam, y)
        grid = np.linspace(0.0, 0.99, 100)
        best = max(loglik(e, lam, y) for e in grid)
        assert loglik(min(result.eta_hat, 1 - 1e-12), lam, y) >= best - 1e-9


def test_newton_unidentifiable_and_degenerate():
    with pytest.raises(UnidentifiableModelError):
        newton_estimate(np.ones(5), np.arange(1.0, 6.0))
    with pytest.raises(DegenerateDataError):
        newton_estimate(np.array([2.0, 0.5]), np.zeros(2))


@settings(max_examples=20, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_scale_invariance_of_maximizer(c):
    lam, y = simulated_spectrum(seed=6, n=80, N=160, eta_star=0.5)
    base = newton_estimate(lam, y)
    scaled = newton_estimate(lam, c * y)
    assert abs(scaled.eta_hat - base.eta_hat) <= 1e-8
    assert scaled.sigma2_hat == pytest.approx(c**2 * base.sigma2_hat, rel=1e-9)
    assert scaled.chosen_start == base.chosen_start


@pytest.mark.parametrize("c", [1e-160, 1e160])
def test_extreme_scale_matches_unscaled_fit(c):
    # y^2 would underflow to subnormals at 1e-160 and overflow at 1e160
    lam, y = simulated_spectrum(seed=6, n=80, N=160, eta_star=0.5)
    base = newton_estimate(lam, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = newton_estimate(lam, c * y)
    assert abs(scaled.eta_hat - base.eta_hat) <= 1e-8
    assert scaled.chosen_start == base.chosen_start


def test_permutation_invariance():
    lam, y = simulated_spectrum(seed=8, n=60, N=120, eta_star=0.4)
    rng = replicate_rng(123)
    perm = rng.permutation(lam.size)
    base = newton_estimate(lam, y)
    shuffled = newton_estimate(lam[perm], y[perm])
    assert shuffled.eta_hat == pytest.approx(base.eta_hat, abs=1e-12)
    assert loglik(0.4, lam, y) == pytest.approx(loglik(0.4, lam[perm], y[perm]), rel=1e-12)


def test_solver_iteration_budget():
    # convergence within the documented 20-iteration budget on typical data
    lam, y = simulated_spectrum(seed=9, n=200, N=400, eta_star=0.5)
    result = newton_estimate(lam, y)
    assert all(it <= 20 for it in result.iterations_per_start)
    assert any(result.converged)


def test_grid_oracle_edge_behaviors():
    y = np.arange(1.0, 6.0)
    assert grid_oracle(np.ones(5), y, 1e-3) == 0.0
    # eigenvalues spread far above 1 with matching large observations push
    # the maximizer to the top of the interval
    lam = np.array([30.0, 25.0, 0.1, 0.2])
    yv = np.array([40.0, 35.0, 0.1, 0.1])
    assert grid_oracle(lam, yv, 1e-3) == pytest.approx(0.99)
    with pytest.raises(ConfigurationError):
        grid_oracle(np.ones(3), y[:3], 0.5)


# ---------------------------------------------------------------------------
# bit-identity guards: grid blocking and lockstep starts change no bit
# ---------------------------------------------------------------------------


def seeded_spectrum(seed, n, eta):
    rng = replicate_rng(seed)
    lam = rng.uniform(0.0, 3.0, n)
    y = rng.standard_normal(n) * np.sqrt(eta * lam + 1.0 - eta)
    return lam, y


@pytest.mark.parametrize(
    "n, sizes",
    [
        (7, [1, 991, 4681, 4682, 9500]),  # 4681 etas per block
        (1500, [1, 20, 21, 22, 100, 991]),  # 21 etas per block
        (40000, [1, 2, 37]),  # one eta per block
    ],
)
def test_loglik_grid_equals_pointwise_loglik(n, sizes):
    lam, y = seeded_spectrum(seed=n, n=n, eta=0.5)
    for size in sizes:
        etas = np.linspace(0.0, 0.99, size)
        assert np.array_equal(loglik_grid(etas, lam, y), [loglik(e, lam, y) for e in etas])


# (seed, n, eta*, delta, inits, oracle step) -> newton_estimate summary and
# grid_oracle value, recorded before the grid was blocked and the starts
# stepped in lockstep.
GOLDEN_FITS = [
    pytest.param(
        (23, 5, 0.0, 0.01, (0.1, 0.5, 0.9), 5e-4),
        {"eta_hat": 0.9375553031837494, "sigma2_hat": 1.7678124792904737,
         "iterations_per_start": [4, 4, 9], "converged": [True, True, True],
         "chosen_start": -1, "clamped": False},
        0.9375,
        id="grid-override",
    ),
    pytest.param(
        (0, 5, 0.0, 0.01, (0.1, 0.5, 0.9), 5e-4),
        {"eta_hat": 0.99, "sigma2_hat": 0.37681856059481983,
         "iterations_per_start": [5, 3, 4], "converged": [True, True, True],
         "chosen_start": -1, "clamped": True},
        0.99,
        id="grid-override-clamped",
    ),
    pytest.param(
        (3, 5, 0.0, 0.01, (0.1, 0.5, 0.9), 5e-4),
        {"eta_hat": 0.0, "sigma2_hat": 0.30359403135856716,
         "iterations_per_start": [20, 20, 20], "converged": [False, False, False],
         "chosen_start": 0, "clamped": False},
        0.0,
        id="zero-unconverged",
    ),
    pytest.param(
        (0, 40, 0.9, 0.01, (0.1, 0.5, 0.9), 5e-4),
        {"eta_hat": 0.99, "sigma2_hat": 1.0758505048179363,
         "iterations_per_start": [4, 2, 20], "converged": [True, True, False],
         "chosen_start": 0, "clamped": True},
        0.99,
        id="clamped",
    ),
    pytest.param(
        (1, 1500, 0.5, 0.01, (0.1, 0.5, 0.9), 5e-4),
        {"eta_hat": 0.5263005977927662, "sigma2_hat": 0.9751319062858537,
         "iterations_per_start": [5, 4, 7], "converged": [True, True, True],
         "chosen_start": 0, "clamped": False},
        0.5265,
        id="interior-n1500",
    ),
    pytest.param(
        (2, 33000, 0.5, 0.01, (0.1, 0.5, 0.9), 1e-3),
        {"eta_hat": 0.5057315024074435, "sigma2_hat": 1.0089734382585644,
         "iterations_per_start": [5, 3, 7], "converged": [True, True, True],
         "chosen_start": 0, "clamped": False},
        0.506,
        id="interior-n-above-block",
    ),
    pytest.param(
        (1, 30, 0.5, 0.05, (0.2, 0.6), 5e-4),
        {"eta_hat": 0.37578239700548194, "sigma2_hat": 0.8785408022117482,
         "iterations_per_start": [3, 5], "converged": [True, True],
         "chosen_start": 0, "clamped": False},
        0.376,
        id="two-starts-delta-0.05",
    ),
]


@pytest.mark.parametrize("case, summary, oracle", GOLDEN_FITS)
def test_solver_golden_values(case, summary, oracle):
    seed, n, eta_star, delta, inits, step = case
    lam, y = seeded_spectrum(seed, n, eta_star)
    result = newton_estimate(lam, y, SolverConfig(delta=delta, inits=inits))
    assert result.summary() == summary
    assert grid_oracle(lam, y, step, delta) == oracle


@pytest.mark.xfail(
    strict=True,
    reason="stated concentration bound is unattainable at this sample size: "
    "the null-case maximizer has asymptotic SD sqrt(2/(n a)) ~ 0.14, so "
    "eta_hat < 0.1 happens with probability ~0.76, not >= 0.9",
)
def test_null_case_concentration_bound():
    below = 0
    for rep in range(200):
        lam, y = simulated_spectrum(seed=20000 + rep, n=200, N=400, eta_star=0.0)
        below += newton_estimate(lam, y).eta_hat < 0.1
    assert below >= 180


def test_null_case_measured_concentration():
    # what the null case actually does at n=200, N=400: half the mass lands
    # exactly on the boundary at 0 and ~3/4 below 0.1
    estimates = []
    for rep in range(200):
        lam, y = simulated_spectrum(seed=20000 + rep, n=200, N=400, eta_star=0.0)
        estimates.append(newton_estimate(lam, y).eta_hat)
    estimates = np.array(estimates)
    assert np.mean(estimates == 0.0) > 0.35
    assert np.mean(estimates < 0.1) > 0.6
    assert estimates.mean() < 0.12
