"""Sparse random effects and the assumed-q standard error.

When only a proportion q < 1 of the effects are non-null, the asymptotic
variance of the estimator picks up an extra term. This demo simulates a
sparse Gaussian-design cohort, compares the q=1 and assumed-q standard
errors against the Monte-Carlo spread, and shows how the sparse SE grows
as the assumed q shrinks.
"""

import numpy as np

from specherit import (
    build_report,
    decompose,
    newton_estimate,
    s_empirical,
    se_q1,
    simulate_cohort,
    study_records,
    SimulationConfig,
    StudySpec,
    gamma_n2,
    tau2,
)

eta_star, a, q, n = 0.7, 0.5, 0.5, 400
N = round(n / a)
print(f"cell: eta*={eta_star}, a={a}, q={q}, n={n}, N={N}, gaussian design")

# --- Monte-Carlo spread vs the two SEs --------------------------------------

reps = 150
cell = SimulationConfig(n=n, N=N, eta_star=eta_star, q=q, seed=555, replicates=reps)
records = study_records(StudySpec(base=cell, design="gaussian"))
eta_hats = np.array([r.eta_hat for r in records])
print(f"\nover {reps} replicates:")
print(f"  SD(eta_hat)        = {eta_hats.std(ddof=1):.4f}")
print(f"  mean se (q=1)      = {np.mean([r.se_q1 for r in records]):.4f}   <- underestimates")
print(f"  mean se (assumed q)= {np.mean([r.se_sparse for r in records]):.4f}")

# --- one cohort, a range of assumed q ---------------------------------------

cohort = simulate_cohort(
    SimulationConfig(n=n, N=N, eta_star=eta_star, q=q, seed=321), design="gaussian"
)
spec = decompose(cohort.Z, cohort.Y)
result = newton_estimate(spec.lambdas, spec.y_rot)
print(f"\nsingle cohort: eta_hat = {result.eta_hat:.4f}")
print(f"{'assumed q':>10s} {'se_sparse':>10s} {'CI width':>9s}")
for q_assumed in (1.0, 0.5, 0.1, 0.01):
    report = build_report(spec.lambdas, spec.y_rot, n_markers=N,
                          solver_result=result, q_assumed=q_assumed)
    width = report.ci_hi - report.ci_lo
    print(f"{q_assumed:10.2f} {report.se_sparse:10.4f} {width:9.4f}")

# --- the variance formula piece by piece ------------------------------------

eta = result.eta_hat
g2 = gamma_n2(eta, spec.lambdas)
base = tau2(a, eta, 1.0, g2)
sparse = tau2(a, eta, q, g2)
print(f"\ntau^2 at q=1: {base:.4f} (= 2/gamma_n^2; se = {se_q1(g2, n):.4f})")
print(f"tau^2 at q={q}: {sparse:.4f} "
      f"(inflation {100 * (sparse / base - 1):.1f}% from the sparsity term)")
# The paper's sparsity term is 3 a^2 eta^2 / gamma^4 (1/q - 1) S, with
# S = s_empirical = ((1 - eta) gamma^2)^2: the gammas cancel.
S = s_empirical(eta, spec.lambdas)
term = 3 * a**2 * eta**2 * (1 - eta) ** 2 * (1 / q - 1)
print(f"sparsity term 3 a^2 eta^2 (1 - eta)^2 (1/q - 1) = {term:.4f}, "
      f"with S = ((1 - eta) gamma_n^2)^2 = {S:.4f}: it needs no spectrum")
print("\nThe proportion q is never estimated: outputs label the sparse SE "
      "'assumed q' and the CLI only computes it when --q is given.")
