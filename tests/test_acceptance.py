"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo cells are desk-scale (n = 400..500, 300..500 replicates) with a
fixed master seed, so every run is deterministic. Cells shared by several
criteria are computed once and cached. Pivot and coverage criteria use the
i.i.d. Gaussian design (the design under which the sparse-case theory is
stated); the genotype-design statistics for the same cells are printed for
information without being asserted.

Run with `pytest -s tests/test_acceptance.py -v` to see the criterion lines.
"""

import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import norm

from specherit import (
    d2loglik,
    dloglik,
    grid_oracle,
    loglik,
    mp_check,
    newton_estimate,
    replicate_rng,
    run_replicate,
)
from specherit.spectral import MPLaw, mp_integrate

from conftest import riemann_mp, simulated_spectrum

MASTER_SEED = 12345


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _info(text):
    print(f"[acceptance] INFO (not asserted): {text}")


@lru_cache(maxsize=None)
def cell(eta_star, a, q, n, reps, design):
    records = []
    for rep in range(reps):
        record = run_replicate(
            n=n, N=round(n / a), eta_star=eta_star, q=q,
            seed=MASTER_SEED, replicate=rep, design=design,
        )
        assert record.error == "", record.error
        records.append(record)
    return tuple(records)


def _eta_hats(records):
    return np.array([r.eta_hat for r in records])


def _ks_to_standard_normal(sample):
    s = np.sort(np.asarray(sample))
    n = s.size
    F = norm.cdf(s)
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n)))


# ---------------------------------------------------------------------------
# criteria 1-4: Monte-Carlo behavior of the estimator
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_01_unbiasedness():
    start = time.time()
    records = cell(0.5, 0.1, 1.0, 500, 300, "genotype")
    elapsed = time.time() - start
    eta = _eta_hats(records)
    bias = abs(eta.mean() - 0.5)
    bound = 3.0 * eta.std(ddof=1) / np.sqrt(300)
    _report(
        1,
        bias < bound and elapsed < 600,
        f"|mean - 0.5| = {bias:.5f} < {bound:.5f} (3 SD/sqrt(300)); "
        f"runtime {elapsed:.0f}s < 600s  [genotype design, eta*=0.5, a=0.1, n=500]",
    )


@pytest.mark.slow
def test_criterion_02_clt_pivot():
    records = cell(0.5, 0.1, 1.0, 500, 500, "gaussian")[:300]
    pivots = np.array([r.pivot_q1 for r in records])
    mean, var = pivots.mean(), pivots.var(ddof=1)
    ks = _ks_to_standard_normal(pivots)
    ok = abs(mean) < 0.25 and 0.7 < var < 1.3 and ks < 0.12

    geno = cell(0.5, 0.1, 1.0, 500, 300, "genotype")
    geno_pivots = np.array([r.pivot_q1 for r in geno])
    clamps = sum(r.clamped for r in geno)
    _info(
        f"criterion 02 under the genotype design: pivot mean {geno_pivots.mean():.3f}, "
        f"variance {geno_pivots.var(ddof=1):.2f}, KS {_ks_to_standard_normal(geno_pivots):.3f} "
        f"({clamps} boundary-clamped replicates of 300; clamped replicates put "
        f"g(0.99, 0)^2 = 1e4 into gamma_n^2, so their pivots are ~35)"
    )
    _report(
        2,
        ok,
        f"pivot |mean| = {abs(mean):.4f} < 0.25, variance = {var:.4f} in [0.7, 1.3], "
        f"KS = {ks:.4f} < 0.12  [gaussian design, 300 replicates]",
    )


@pytest.mark.slow
def test_criterion_03_se_calibration():
    lines = []
    ok = True
    for eta_star in (0.3, 0.5):
        for a in (0.1, 0.5):
            records = cell(eta_star, a, 1.0, 500, 300, "genotype")
            sd = _eta_hats(records).std(ddof=1)
            mean_se = np.mean([r.se_q1 for r in records])
            ratio = mean_se / sd
            ok = ok and 0.8 < ratio < 1.2
            lines.append(f"(eta*={eta_star}, a={a}): mean se/SD = {ratio:.3f}")
    _report(3, ok, "; ".join(lines) + "  [all within 20%]")


@pytest.mark.slow
def test_criterion_04_sparse_variance_inflation():
    records = cell(0.7, 0.5, 0.5, 400, 300, "gaussian")
    sd = _eta_hats(records).std(ddof=1)
    mean_sparse = np.mean([r.se_sparse for r in records])
    mean_q1 = np.mean([r.se_q1 for r in records])
    ok = abs(mean_sparse - sd) < 0.25 * sd and mean_q1 < sd

    geno = cell(0.7, 0.5, 0.5, 400, 300, "genotype")
    geno_sd = _eta_hats(geno).std(ddof=1)
    _info(
        f"criterion 04 under the genotype design (conjectured case): SD(eta_hat) = "
        f"{geno_sd:.4f}, mean se_sparse = {np.mean([r.se_sparse for r in geno]):.4f}, "
        f"mean se_q1 = {np.mean([r.se_q1 for r in geno]):.4f}"
    )
    _report(
        4,
        ok,
        f"mean se_sparse = {mean_sparse:.4f} within 25% of SD = {sd:.4f}; "
        f"mis-specified q=1 SE {mean_q1:.4f} < SD {sd:.4f}  "
        f"[gaussian design, eta*=0.7, a=0.5, q=0.5, n=400]",
    )


# ---------------------------------------------------------------------------
# criterion 5: spectral convergence
# ---------------------------------------------------------------------------


def test_criterion_05_mp_convergence():
    start = time.time()
    gaussian = mp_check(1000, 2000, "gaussian", seed=MASTER_SEED)
    genotype = mp_check(1000, 2000, "genotype", seed=MASTER_SEED)
    elapsed = time.time() - start
    ok = gaussian["pass"] and genotype["pass"] and elapsed < 60
    _report(
        5,
        ok,
        f"KS(gaussian) = {gaussian['ks_distance']:.4f}, "
        f"KS(genotype) = {genotype['ks_distance']:.4f}, both < 0.05; "
        f"runtime {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 6: solver vs brute-force grid
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    eta_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    a_grid = [0.1, 0.5, 1.0]
    worst = 0.0
    count = 0
    for i in range(50):
        eta_star = eta_grid[i % len(eta_grid)]
        a = a_grid[(i // len(eta_grid)) % len(a_grid)]
        n = 150
        lam, y = simulated_spectrum(seed=60_000 + i, n=n, N=round(n / a), eta_star=eta_star)
        newton = newton_estimate(lam, y).eta_hat
        oracle = grid_oracle(lam, y, 1e-4)
        worst = max(worst, abs(newton - oracle))
        count += 1
    _report(6, worst <= 2e-4, f"max |newton - grid argmax| = {worst:.2e} over {count} instances")


# ---------------------------------------------------------------------------
# criterion 7: quadratic-form variance (exact formula vs simulation)
# ---------------------------------------------------------------------------


def test_criterion_07_quadform_variance():
    from specherit import var_quadform_oracle

    n, N, q, eta, sigma2 = 5, 8, 0.5, 0.6, 1.0
    rng = replicate_rng(MASTER_SEED, 7)
    Z = rng.standard_normal((n, N))
    U, s, Vt = np.linalg.svd(Z / np.sqrt(N), full_matrices=True)
    lam, V = s**2, Vt.T
    h = rng.standard_normal(n)

    predicted = var_quadform_oracle(h, lam, V, eta, sigma2, q)
    draws = 200_000
    sigma_u = np.sqrt(eta * sigma2 / (N * q))
    A = (U.T @ Z) * sigma_u
    u = rng.standard_normal((draws, N)) * (rng.random((draws, N)) < q)
    e = rng.standard_normal((draws, n)) * np.sqrt((1 - eta) * sigma2)
    quad = (((u @ A.T) + e) ** 2 * h).sum(axis=1)
    observed = float(quad.var())
    rel = abs(observed - predicted) / predicted

    q1_value = var_quadform_oracle(h, lam, V, eta, sigma2, 1.0)
    closed_form = 2.0 * sigma2**2 * float(np.sum(h**2 * ((1 - eta) + eta * lam) ** 2))
    _report(
        7,
        rel < 0.05 and q1_value == closed_form,
        f"MC variance {observed:.4f} vs formula {predicted:.4f} "
        f"(rel. err {rel:.3f} < 0.05, 200k draws); q=1 equals closed form exactly",
    )


# ---------------------------------------------------------------------------
# criterion 8: derivative correctness
# ---------------------------------------------------------------------------


def test_criterion_08_derivatives():
    rng = replicate_rng(MASTER_SEED, 8)
    worst1 = worst2 = 0.0
    for trial in range(100):
        size = int(rng.integers(20, 80))
        lam = rng.uniform(0.0, 3.0, size)
        y = rng.standard_normal(size)
        eta = float(rng.uniform(0.05, 0.9))
        f = lambda e: loglik(e, lam, y)
        fd1 = (f(eta + 1e-6) - f(eta - 1e-6)) / 2e-6
        fd2 = (f(eta + 1e-4) - 2.0 * f(eta) + f(eta - 1e-4)) / 1e-8
        worst1 = max(worst1, abs(dloglik(eta, lam, y) - fd1) / max(1.0, abs(fd1)))
        worst2 = max(worst2, abs(d2loglik(eta, lam, y) - fd2) / max(1.0, abs(fd2)))
    _report(
        8,
        worst1 <= 1e-4 and worst2 <= 1e-3,
        f"max rel. error vs central differences: L' {worst1:.2e} <= 1e-4, "
        f"L'' {worst2:.2e} <= 1e-3 (100 instances)",
    )


# ---------------------------------------------------------------------------
# criterion 9: Marchenko-Pastur quadrature
# ---------------------------------------------------------------------------


def test_criterion_09_quadrature():
    ok = True
    details = []
    for a in (0.25, 0.5, 1.0, 2.0):
        law = MPLaw(a)
        mass = mp_integrate(law, lambda lam: np.ones_like(lam))
        mean = mp_integrate(law, lambda lam: lam)
        second = mp_integrate(law, lambda lam: lam**2)
        ok = ok and abs(mass - 1.0) <= 1e-9
        ok = ok and abs(mean - 1.0) <= 1e-7
        ok = ok and abs(second - (1.0 + a)) <= 1e-6
        # independent 1e7-point Riemann-sum oracle
        ok = ok and abs(mass - riemann_mp(a, lambda lam: np.ones_like(lam))) <= 1e-9
        ok = ok and abs(mean - riemann_mp(a, lambda lam: lam)) <= 1e-7
        ok = ok and abs(second - riemann_mp(a, lambda lam: lam**2)) <= 1e-6
        details.append(f"a={a}: mass err {abs(mass-1):.1e}, second moment err {abs(second-1-a):.1e}")
    atom = MPLaw(2.0).mass_at_zero
    ok = ok and atom == 0.5
    _report(9, ok, "; ".join(details) + f"; mass_at_zero(a=2) = {atom}")


# ---------------------------------------------------------------------------
# criterion 10: structural invariants
# ---------------------------------------------------------------------------


def test_criterion_10_structural_invariants():
    from specherit import decompose, newton_estimate, standardize
    from specherit.synthcohort import sample_allele_frequencies, sample_genotypes

    ok = True
    for seed in (1, 2, 3):
        rng = replicate_rng(MASTER_SEED, 100 + seed)
        n, N = 80, 160
        W = sample_genotypes(n, sample_allele_frequencies(N, 0.1, 0.5, rng), rng)
        Z = standardize(W).Z
        ok = ok and np.abs(Z.sum(axis=0)).max() <= n * 1e-10           # column sums
        ok = ok and np.abs((Z**2).sum(axis=0) - n).max() <= n * 1e-10  # squared sums
        Y = rng.standard_normal(n)
        spec = decompose(Z, Y)
        ok = ok and abs(spec.lambdas.sum() - n) <= n * 1e-8            # trace identity
        ok = ok and abs(spec.lambdas.min()) <= 1e-8                    # kernel eigenvalue
        norm_ratio = np.linalg.norm(spec.y_rot) / np.linalg.norm(Y)
        ok = ok and abs(norm_ratio - 1.0) <= 1e-10                     # rotation norm
        base = newton_estimate(spec.lambdas, spec.y_rot)
        scaled = newton_estimate(spec.lambdas, 4.2 * spec.y_rot)
        ok = ok and abs(base.eta_hat - scaled.eta_hat) <= 1e-8         # scale invariance
    _report(10, ok, "trace, kernel, column-sum, rotation-norm and scale-invariance "
                    "identities hold on randomized standardized designs")


# ---------------------------------------------------------------------------
# criterion 11: confidence-interval coverage
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_11_ci_coverage():
    records = cell(0.5, 0.1, 1.0, 500, 500, "gaussian")
    coverage = np.mean([r.covered for r in records])

    geno = cell(0.5, 0.1, 1.0, 500, 300, "genotype")
    _info(
        f"criterion 11 under the genotype design (300 replicates): coverage "
        f"{np.mean([r.covered for r in geno]):.3f}; boundary-clamped replicates "
        f"report the boundary value 1 - delta = 0.99, whose interval cannot cover"
    )
    _report(
        11,
        0.91 <= coverage <= 0.985,
        f"95% CI coverage = {coverage:.4f} in [0.91, 0.985] over 500 replicates "
        f"[gaussian design, eta*=0.5, a=0.1, n=500, q=1]",
    )
