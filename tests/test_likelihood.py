import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherit import (
    ConfigurationError,
    DataError,
    NumericalFailureError,
    ShapeMismatchError,
    UnidentifiableModelError,
    build_report,
    d2loglik,
    dloglik,
    gamma_n2,
    grid_oracle,
    newton_estimate,
    replicate_rng,
)

from specherit import likelihood
from specherit.likelihood import loglik_grid

from conftest import raised, seeded_spectrum, simulated_spectrum


def loglik(eta, lam, y):
    """L(eta) at one point: ``loglik_grid``'s value, the same bits."""
    return float(loglik_grid([float(eta)], lam, y)[0])


def profile_sigma2(eta, lam, y):
    """sigma2(eta) = mean(y^2 / d), as m mean(w / d): the bits of the solver's sigma2_hat."""
    table, m = likelihood._profile([float(eta)], lam, y, 0)
    return m * float(table[1, 0])


ZERO_Y = "^rotated observations are identically zero$"


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
    """The kernel g = (lam - 1) / (eta (lam - 1) + 1), read through
    ``gamma_n2``: on a two-point spectrum its variance is ((g_1 - g_2) / 2)^2."""
    assert gamma_n2(0.3, np.array([1.0, 1.0])) == 0.0  # g(0.3, 1) = 0
    assert gamma_n2(0.0, np.array([2.5, 1.0])) == pytest.approx(0.75**2)  # g(0, 2.5) = 1.5
    assert gamma_n2(0.5, np.array([3.0, 1.0])) == pytest.approx(0.25)  # g(0.5, 3) = 1
    assert gamma_n2(0.2, np.array([1.0, 2.0])) == pytest.approx((0.5 / 1.2) ** 2)


def test_g_zero_eigenvalue_is_finite():
    assert gamma_n2(0.5, np.array([0.0, 1.0])) == pytest.approx(1.0)  # g(0.5, 0) = -2


def test_profile_sigma2_cases():
    y = np.array([1.0, 3.0])
    lam = np.array([2.0, 0.5])
    assert profile_sigma2(0.0, lam, y) == pytest.approx(np.mean(y**2))
    assert profile_sigma2(0.7, np.ones(2), y) == pytest.approx(np.mean(y**2))
    assert profile_sigma2(0.5, np.array([2.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(4.0 / 3.0)
    with pytest.raises(DataError, match=ZERO_Y):
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
# input rules: each is one check, and every entry that takes the input
# raises the same error for it
# ---------------------------------------------------------------------------


PAIR_ENTRIES = {
    "newton_estimate": lambda lam, y: newton_estimate(lam, y),
    "build_report": lambda lam, y: build_report(
        lam, y, 60, newton_estimate(*seeded_spectrum(seed=1, n=30, eta=0.5))
    ),
    "grid_oracle": lambda lam, y: grid_oracle(lam, y, 1e-2),
    "loglik_grid": lambda lam, y: loglik_grid(np.array([0.0, 0.5]), lam, y),
    "dloglik": lambda lam, y: dloglik(0.5, lam, y),
    "d2loglik": lambda lam, y: d2loglik(0.5, lam, y),
}


@pytest.mark.parametrize(
    "lam, y, error, message",
    [
        pytest.param([], [], ShapeMismatchError,
                     "eigenvalues must be a non-empty vector, got shape (0,)", id="empty"),
        pytest.param([[0.5, 1.5], [1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], ShapeMismatchError,
                     "eigenvalues must be a non-empty vector, got shape (2, 2)", id="2-D"),
        pytest.param([0.5, 1.5, 2.0], [1.0, 2.0], ShapeMismatchError,
                     "rotated observations (2,) and eigenvalues (3,) differ in shape",
                     id="y-short"),
        pytest.param([0.5, np.nan, 2.0], [1.0, 2.0, 3.0], DataError,
                     "eigenvalues must be finite", id="nan-lambda"),
        pytest.param([0.5, 1.5, 2.0], [1.0, np.inf, 3.0], DataError,
                     "rotated observations must be finite", id="inf-y"),
        pytest.param([0.5, 1.5, 2.0], [0.0, 0.0, 0.0], DataError,
                     "rotated observations are identically zero", id="zero-y"),
    ],
)
def test_every_entry_applies_the_pair_rule(lam, y, error, message):
    got = {name: raised(lambda: entry(lam, y)) for name, entry in PAIR_ENTRIES.items()}
    assert got == dict.fromkeys(PAIR_ENTRIES, (error, message))


Y3 = np.array([1.0, 2.0, 3.0])
ETA_ENTRIES = {
    "gamma_n2": lambda eta, lam: gamma_n2(eta, lam),
    "loglik_grid": lambda eta, lam: loglik_grid(np.array([0.0, eta]), lam, Y3),
}


@pytest.mark.parametrize(
    "eta, lam, error, message",
    [
        pytest.param(1.0, [0.0, 1.0, 2.0], ConfigurationError,
                     "eta must be in [0, 1), got 1.0", id="eta-1"),
        pytest.param(1.5, [0.0, 1.0, 2.0], ConfigurationError,
                     "eta must be in [0, 1), got 1.5", id="eta-above-1"),
        pytest.param(-0.1, [0.0, 1.0, 2.0], ConfigurationError,
                     "eta must be in [0, 1), got -0.1", id="eta-negative"),
        pytest.param(math.nan, [0.0, 1.0, 2.0], ConfigurationError,
                     "eta must be in [0, 1), got nan", id="eta-nan"),
        pytest.param(0.5, [-2.0, 1.0, 2.0], NumericalFailureError,
                     "non-positive denominator at eta=0.5: min eigenvalue - 1 is -3.0",
                     id="non-positive-d"),
    ],
)
def test_every_entry_applies_the_eta_rule(eta, lam, error, message):
    lam = np.array(lam)
    got = {name: raised(lambda: entry(eta, lam)) for name, entry in ETA_ENTRIES.items()}
    assert got == dict.fromkeys(ETA_ENTRIES, (error, message))


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
    lam, y = seeded_spectrum(seed=1, n=30, eta=0.5)
    with pytest.raises(ConfigurationError):
        newton_estimate(lam, y, delta=0.6)
    # the default margin is 0.01
    assert newton_estimate(lam, y) == newton_estimate(lam, y, delta=0.01)


@pytest.mark.parametrize("delta", [0.0, 0.5, math.nan, -0.1])
def test_solver_and_grid_oracle_reject_the_same_delta(delta):
    lam, y = seeded_spectrum(seed=1, n=30, eta=0.5)
    with pytest.raises(ConfigurationError) as solver_error:
        newton_estimate(lam, y, delta)
    with pytest.raises(ConfigurationError) as oracle_error:
        grid_oracle(lam, y, 1e-3, delta)
    want = f"delta must be in (0, 0.5), got {delta}"
    assert str(oracle_error.value) == str(solver_error.value) == want


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
    narrow = newton_estimate(lam, y, delta=0.05)
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
    with pytest.raises(DataError, match=ZERO_Y):
        newton_estimate(np.array([2.0, 0.5]), np.zeros(2))


def path(result):
    """What the solve did: rows scored, Newton steps, convergence, clamping."""
    return result.rows, result.newton_steps, result.converged, result.clamped


@settings(max_examples=20, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_scale_invariance_of_maximizer(c):
    lam, y = simulated_spectrum(seed=6, n=80, N=160, eta_star=0.5)
    base = newton_estimate(lam, y)
    scaled = newton_estimate(lam, c * y)
    assert abs(scaled.eta_hat - base.eta_hat) <= 1e-8
    assert scaled.sigma2_hat == pytest.approx(c**2 * base.sigma2_hat, rel=1e-9)
    assert path(scaled) == path(base)


@pytest.mark.parametrize("c", [1e-160, 1e160])
def test_extreme_scale_matches_unscaled_fit(c):
    # y^2 would underflow to subnormals at 1e-160 and overflow at 1e160
    lam, y = simulated_spectrum(seed=6, n=80, N=160, eta_star=0.5)
    base = newton_estimate(lam, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = newton_estimate(lam, c * y)
    assert abs(scaled.eta_hat - base.eta_hat) <= 1e-8
    assert path(scaled) == path(base)


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
    assert result.newton_steps <= 20
    assert result.converged


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
# bit-identity guards: grid blocking changes no bit
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the certificate: no eta beats the solve by more than its gap
# ---------------------------------------------------------------------------


def full_grid(upper, step):
    """``grid_oracle``'s grid: multiples of ``step``, ending at ``upper``."""
    count = int(np.floor(upper / step + 1e-9))
    grid = np.linspace(0.0, count * step, count + 1)
    if upper - grid[-1] > 1e-12:
        grid = np.append(grid, upper)
    grid[-1] = upper
    return grid


def check_certificate(lam, y, delta, grid):
    """0 <= gap <= 1e-6, and no point of ``grid`` scores above the solve's
    L_w plus its gap. Returns the solve."""
    lam_, w, _ = likelihood._prepare(lam, y)
    result = newton_estimate(lam, y, delta=delta)
    score = likelihood._rows(np.array([result.eta_hat]), lam_ - 1.0, w, 0)[3][0]
    assert 0.0 <= result.gap <= 1e-6
    assert likelihood._rows(grid, lam_ - 1.0, w, 0)[3].max() <= score + result.gap
    return result


def check_against_oracle(lam, y, delta, step):
    """The certificate holds on ``grid_oracle``'s grid, and ``grid_oracle``
    is that grid's exhaustive argmax, the lowest eta on ties. Returns the
    solve and the oracle."""
    grid = full_grid(1.0 - delta, step)
    result = check_certificate(lam, y, delta, grid)
    oracle = grid_oracle(lam, y, step, delta)
    assert oracle == grid[np.argmax(loglik_grid(grid, lam, y))]
    return result, oracle


def spectrum_of(kind, n, rng):
    even = np.arange(n) % 2 == 0
    if kind == "two-cluster":
        return np.where(even, rng.normal(0.2, 0.01, n).clip(0.0), rng.normal(3.0, 0.1, n))
    if kind == "half-zero":
        return np.where(even, 0.0, rng.uniform(0.0, 4.0, n))
    return np.ones(n)


@pytest.mark.parametrize("kind", ["two-cluster", "half-zero", "flat"])
@pytest.mark.parametrize("n", [2, 3, 40, 800])
def test_bounded_scan_equals_exhaustive_argmax(n, kind):
    """The solve's scan of knots, refined where ``_interval_bounds`` allows
    a better point, reaches the exhaustive grid argmax up to its gap; a flat
    spectrum's argmax is 0 and its solve is refused."""
    rng = replicate_rng(n)
    lam = spectrum_of(kind, n, rng)
    for eta_star, scale in [(0.0, 1.0), (0.5, 1e-3), (0.8, 1e3), (0.95, 1.0)]:
        y = scale * rng.standard_normal(n) * np.sqrt(eta_star * lam + 1.0 - eta_star)
        for step in (1e-3, 5e-4, 1e-2):
            for delta in (0.01, 0.05, 0.0105):
                if kind == "flat":
                    assert grid_oracle(lam, y, step, delta) == 0.0
                else:
                    check_against_oracle(lam, y, delta, step)
        if kind == "flat":
            with pytest.raises(UnidentifiableModelError):
                newton_estimate(lam, y)


# Bimodal likelihoods whose grid argmax lies in a coarse interval away from
# the best-scoring coarse point: only the tangent bound finds it there.
BIMODAL = [
    ([5.0, 0.0, 1.0, 100.0], [-0.13, 0.014, -2.27, 1.63]),
    (
        [100.0, 0.0, 100.0, 2.0, 0.0],
        [0.07726449229157592, 0.7430538656200087, -5.7368336364196875,
         -18.408427321074385, -1.0075767356246932],
    ),
]


@pytest.mark.parametrize("lam, y", BIMODAL)
def test_bounded_scan_finds_the_far_peak_of_a_bimodal_likelihood(lam, y):
    """The solve lands on the peak a step-1e-4 grid finds; coarser grids
    can miss that narrow peak, but none beats the solve by more than its gap."""
    lam, y = np.array(lam), np.array(y)
    for delta in (0.01, 0.05, 0.0105):
        result, oracle = check_against_oracle(lam, y, delta, 1e-4)
        assert abs(result.eta_hat - oracle) <= 1e-4
        for step in (1e-3, 5e-4, 1e-2):
            check_against_oracle(lam, y, delta, step)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([5, 30, 200]),
    eta_star=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_certificate_on_seeded_spectra(seed, n, eta_star):
    """No point of a step-1e-5 grid on [0, 1 - delta] beats the solve by more than its gap."""
    lam, y = seeded_spectrum(seed, n, eta_star)
    for delta in (0.01, 0.05):
        upper = 1.0 - delta
        check_certificate(lam, y, delta, np.append(np.arange(0.0, upper, 1e-5), upper))


def test_near_singular_denominator_stops_with_an_honest_gap():
    """With d down to ~1e-16 at the upper end, the bound does not close
    there even at float spacing: the search stops after its last round, and
    the gap it reports, above 1e-6, still covers every grid point."""
    lam = np.array([1.0 - 1.0 / 0.95 + 1e-16, 3.0, 0.5])
    y = np.array([1e-8, 2.0, 0.5])
    result = newton_estimate(lam, y, delta=0.05)
    assert result.clamped and result.gap > 1e-6
    lam_, w, _ = likelihood._prepare(lam, y)
    score = likelihood._rows(np.array([result.eta_hat]), lam_ - 1.0, w, 0)[3][0]
    grid = np.append(np.arange(0.0, 0.95, 1e-5), 0.95)
    assert likelihood._rows(grid, lam_ - 1.0, w, 0)[3].max() <= score + result.gap


def test_full_grid_never_beats_the_certified_solve():
    """On spectra where the multi-start solver sometimes had to override
    Newton with a grid point, no grid point beats the certified solve."""
    for seed in range(100):
        for n in (5, 30):
            for eta_star in (0.0, 0.9):
                check_against_oracle(*seeded_spectrum(seed, n, eta_star), 0.01, 1e-3)


@pytest.mark.parametrize("n", [3, 800, 40000])
def test_newton_block_matches_moments(n):
    lam, y = seeded_spectrum(seed=n, n=n, eta=0.5)
    lam_, w, _ = likelihood._prepare(lam, y)
    etas = np.array([0.0, 0.1, 0.37, 0.5, 0.9, 0.99])
    for rows in ([0], [2], [1, 3, 5], slice(None)):
        got = likelihood._newton_block(etas[rows], lam_ - 1.0, w)
        for a, b in zip(got, likelihood._rows(etas[rows], lam_ - 1.0, w, 2)[5:]):
            assert np.array_equal(a, b)


# (seed, n, eta*) -> (L', L'') at eta 0, 0.3 and 0.9, recorded before Newton
# steps got their own kernel: the exact bits pin the derivative expressions.
DERIVATIVE_GOLDEN = [
    ((23, 5, 0.0), [(-0.24754805385057277, 0.5791474991786135),
                    (-0.08617469144288335, 0.5424070414099116),
                    (0.381330198812466, -3.2125874151875227)]),
    ((1, 1500, 0.5), [(0.2724872370426272, -0.8469726213804467),
                      (0.1009678646508893, -0.4312158430761218),
                      (-0.7928584634865102, -10.491292383616042)]),
]


@pytest.mark.parametrize("case, want", DERIVATIVE_GOLDEN)
def test_derivative_golden_values(case, want):
    lam, y = seeded_spectrum(*case)
    assert [(dloglik(e, lam, y), d2loglik(e, lam, y)) for e in (0.0, 0.3, 0.9)] == want


@pytest.mark.parametrize("n", [3, 800, 40000])
def test_moments_rows_do_not_depend_on_the_other_etas(n):
    rng = replicate_rng(n)
    lam, y = seeded_spectrum(seed=n, n=n, eta=0.5)
    lam_, w, _ = likelihood._prepare(lam, y)
    grid = full_grid(0.99, 1e-3)
    full = likelihood._rows(grid, lam_ - 1.0, w, 2)
    subsets = [[0], [990], np.arange(17, 32), np.arange(0, 991, 16)]
    subsets += [np.sort(rng.choice(991, size, replace=False)) for size in (2, 50, 400)]
    for rows in subsets:
        for got, want in zip(likelihood._rows(grid[rows], lam_ - 1.0, w, 2), full):
            assert np.array_equal(got, want[rows])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The eta count of each call to either kernel, per kernel name."""
    calls = {"_rows_block": [], "_newton_block": []}

    def counting(name, kernel):
        def count(etas, *args):
            calls[name].append(np.size(etas))
            return kernel(etas, *args)

        return count

    for name in calls:
        monkeypatch.setattr(likelihood, name, counting(name, getattr(likelihood, name)))
    return calls


@pytest.mark.parametrize("eta_star", [0.0, 0.5, 0.8])
def test_solve_scores_at_most_a_twelfth_of_the_grid(kernel_calls, eta_star):
    """Every row a solve evaluates, Newton steps included, goes through one
    of the two kernels, and ``rows`` counts them: at most 40, well within
    1/12 of the 991-point grid."""
    lam, y = seeded_spectrum(seed=4, n=1500, eta=eta_star)
    result = newton_estimate(lam, y)
    assert result.rows == sum(map(sum, kernel_calls.values())) <= 40


@pytest.mark.parametrize("eta_star", [0.0, 0.5, 0.8])
def test_solve_makes_at_most_four_row_passes(kernel_calls, eta_star):
    """The knots, Newton's optimum with its ladder and the bisection rounds
    together take at most four ``_rows_block`` calls."""
    lam, y = seeded_spectrum(seed=4, n=1500, eta=eta_star)
    newton_estimate(lam, y)
    assert len(kernel_calls["_rows_block"]) <= 4


@pytest.mark.parametrize("eta_star, calls", [(0.0, 5), (0.5, 4), (0.8, 6)])
def test_solve_kernel_calls_are_pinned(kernel_calls, eta_star, calls):
    """Kernel calls per solve, both kernels together: the knots with L_w'',
    Newton's steps after the first, which reads the best knot's row, and
    the ladder. A change that adds a pass fails here."""
    lam, y = seeded_spectrum(seed=4, n=1500, eta=eta_star)
    newton_estimate(lam, y)
    assert sum(map(len, kernel_calls.values())) == calls


def test_no_newton_run_starts_where_the_likelihood_is_convex(kernel_calls):
    """Golden "grid-override": the best knot has L'' > 0, where Newton
    would head for a minimum. No run starts there and no ladder is scored
    around it: branch and bound finds the peak and one run polishes it."""
    lam, y = seeded_spectrum(seed=23, n=5, eta=0.0)
    knots = np.linspace(0.0, 0.99, 9)
    assert d2loglik(knots[np.argmax(loglik_grid(knots, lam, y))], lam, y) > 0.0
    result = newton_estimate(lam, y)
    assert result.converged and result.rows <= 31
    assert kernel_calls["_rows_block"][:2] == [9, 1]  # knots, then one midpoint
    assert abs(result.eta_hat - grid_oracle(lam, y, 5e-4)) <= 5e-4


def test_boundary_knot_that_meets_the_optimality_condition_takes_no_newton_step(kernel_calls):
    """Golden "zero-unconverged": the best knot is 0 with L'(0) < 0 and
    L''(0) > 0, where Newton would walk inward for its whole budget."""
    lam, y = seeded_spectrum(seed=3, n=5, eta=0.0)
    assert dloglik(0.0, lam, y) < 0.0 < d2loglik(0.0, lam, y)
    result = newton_estimate(lam, y)
    assert result.eta_hat == 0.0
    assert (result.newton_steps, result.converged) == (0, True)
    assert kernel_calls["_newton_block"] == []


# (seed, n, eta*, delta, oracle step) -> newton_estimate summary and
# grid_oracle value. The ids name the path an earlier multi-start solver
# took on each case.
GOLDEN_FITS = [
    pytest.param(
        (23, 5, 0.0, 0.01, 5e-4),
        {"eta_hat": 0.9375553031837494, "sigma2_hat": 1.7678124792904737,
         "newton_steps": 2, "converged": True, "clamped": False,
         "gap": 5.662879979939639e-07, "rows": 30},
        0.9375,
        id="grid-override",
    ),
    pytest.param(
        (0, 5, 0.0, 0.01, 5e-4),
        {"eta_hat": 0.99, "sigma2_hat": 0.37681856059481983,
         "newton_steps": 0, "converged": True, "clamped": True,
         "gap": 0.0, "rows": 15},
        0.99,
        id="grid-override-clamped",
    ),
    pytest.param(
        (3, 5, 0.0, 0.01, 5e-4),
        {"eta_hat": 0.0, "sigma2_hat": 0.30359403135856716,
         "newton_steps": 0, "converged": True, "clamped": False,
         "gap": 0.0, "rows": 15},
        0.0,
        id="zero-unconverged",
    ),
    pytest.param(
        (0, 40, 0.9, 0.01, 5e-4),
        {"eta_hat": 0.99, "sigma2_hat": 1.0758505048179363,
         "newton_steps": 0, "converged": True, "clamped": True,
         "gap": 0.0, "rows": 15},
        0.99,
        id="clamped",
    ),
    pytest.param(
        (1, 1500, 0.5, 0.01, 5e-4),
        {"eta_hat": 0.5263005977927662, "sigma2_hat": 0.9751319062858537,
         "newton_steps": 4, "converged": True, "clamped": False,
         "gap": 3.945889287537696e-08, "rows": 25},
        0.5265,
        id="interior-n1500",
    ),
    pytest.param(
        (2, 33000, 0.5, 0.01, 1e-3),
        {"eta_hat": 0.5057315024074435, "sigma2_hat": 1.0089734382585644,
         "newton_steps": 4, "converged": True, "clamped": False,
         "gap": 3.9849772925926175e-08, "rows": 25},
        0.506,
        id="interior-n-above-block",
    ),
    pytest.param(
        (1, 30, 0.5, 0.05, 5e-4),
        {"eta_hat": 0.375782397005482, "sigma2_hat": 0.8785408022117482,
         "newton_steps": 4, "converged": True, "clamped": False,
         "gap": 3.332749340390073e-08, "rows": 25},
        0.376,
        id="two-starts-delta-0.05",
    ),
]


@pytest.mark.parametrize("case, summary, oracle", GOLDEN_FITS)
def test_solver_golden_values(case, summary, oracle):
    seed, n, eta_star, delta, step = case
    lam, y = seeded_spectrum(seed, n, eta_star)
    result = newton_estimate(lam, y, delta=delta)
    assert result.summary() == summary
    assert grid_oracle(lam, y, step, delta) == oracle


@pytest.mark.parametrize("case, summary, oracle", GOLDEN_FITS)
def test_golden_override_decisions(case, summary, oracle):
    """No golden fit needs a grid override, the two the multi-start solver
    overrode included: no point of the full grid scores more than the gap,
    at most the override threshold 1e-6, above the solve."""
    seed, n, eta_star, delta, step = case
    lam, y = seeded_spectrum(seed, n, eta_star)
    for grid_step in (1e-3, step):
        check_against_oracle(lam, y, delta, grid_step)


# ---------------------------------------------------------------------------
# the solver keeps no state between calls
# ---------------------------------------------------------------------------


def fit(lam, y, delta=0.01):
    return newton_estimate(lam, y, delta=delta).summary()


@pytest.mark.parametrize("case, summary, oracle", GOLDEN_FITS)
def test_fit_after_another_trait_equals_first_fit(case, summary, oracle):
    """A fit after another trait on the same spectrum equals the first fit."""
    seed, n, eta_star, delta, step = case
    lam, y = seeded_spectrum(seed, n, eta_star)
    want = fit(lam, y, delta)
    fit(lam, y[::-1].copy(), delta)  # another trait on the same spectrum
    assert fit(lam, y, delta) == want == summary


def test_fit_keeps_no_state_when_the_spectrum_array_is_reused():
    lam, y = seeded_spectrum(seed=1, n=300, eta=0.5)
    before = fit(lam, y), grid_oracle(lam, y, 1e-3)
    lam *= 4.0  # the caller reuses its array for another spectrum
    after = fit(lam, y), grid_oracle(lam, y, 1e-3)
    assert after == (fit(lam, y), grid_oracle(lam, y, 1e-3))
    assert after != before


@pytest.mark.parametrize("seed, n, eta_star", [(23, 5, 0.0), (1, 1500, 0.5)])
def test_alternating_grids_keep_no_state(seed, n, eta_star):
    lam, y = seeded_spectrum(seed, n, eta_star)
    calls = [
        (fit, (lam, y, 0.01)),
        (grid_oracle, (lam, y, 5e-4, 0.01)),
        (fit, (lam, y, 0.05)),
        (grid_oracle, (lam, y, 1e-3, 0.05)),
        (grid_oracle, (lam, y, 1e-3, 0.01)),
        (fit, (lam, y, 0.01)),
        (grid_oracle, (lam, y, 5e-4, 0.05)),
    ]
    want = [fn(*args) for fn, args in calls]
    for _ in range(2):
        assert [fn(*args) for fn, args in calls] == want


def test_spectra_of_one_size_share_no_state():
    y = seeded_spectrum(seed=0, n=40, eta=0.9)[1]
    spectra = [seeded_spectrum(seed, n=40, eta=0.9)[0] for seed in (0, 1)]
    want = [(fit(lam, y), grid_oracle(lam, y, 1e-3)) for lam in spectra]
    assert want[0][1] != want[1][1]
    for _ in range(2):
        assert [(fit(lam, y), grid_oracle(lam, y, 1e-3)) for lam in spectra] == want


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
