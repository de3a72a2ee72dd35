"""A small Monte-Carlo study over a grid of heritabilities and aspect ratios.

Shows the estimator's unbiasedness and SE calibration across a grid of
cells at demo scale (60 replicates per cell). Writes
the replicate and summary CSVs into ./mc_demo_output and prints the
summary table. Expect a couple of minutes of runtime.
"""

import csv
import json
import tempfile
from pathlib import Path

from specherit import SimulationConfig, StudySpec, run_study

spec = StudySpec(
    base=SimulationConfig(n=300, N=600, eta_star=0.5, seed=777, replicates=60),
    eta_grid=(0.3, 0.5, 0.7),
    a_grid=(0.2, 0.5),
    q_grid=(1.0,),
)

out_dir = Path("mc_demo_output")
replicates_path, summary_path = run_study(spec, str(out_dir))
print(f"replicate table: {replicates_path}")
print(f"summary table:   {summary_path}\n")

with open(summary_path) as fh:
    rows = list(csv.DictReader(fh))

header = f"{'eta*':>5s} {'a':>5s} {'mean(eta_hat)':>14s} {'SD(eta_hat)':>12s} {'mean SE':>9s} {'coverage':>9s}"
print(header)
print("-" * len(header))
for row in rows:
    print(f"{float(row['eta_star']):5.2f} {float(row['a']):5.2f} "
          f"{float(row['mean_eta_hat']):14.4f} {float(row['sd_eta_hat']):12.4f} "
          f"{float(row['mean_se_q1']):9.4f} {float(row['coverage']):9.3f}")

print("\nPatterns to notice: estimates are unbiased in every cell and the "
      "spread shrinks as a grows, with the plug-in SE tracking the "
      "Monte-Carlo SD. At this demo scale the high-heritability cells sit "
      "close to the search boundary, so their SE calibration and coverage "
      "are rougher than at larger sample sizes.")

# The same study can run from the CLI. It runs serially: worker threads
# (--workers) pay only with OPENBLAS_NUM_THREADS=1, as the README explains.
doc = {
    "base": {"n": 300, "N": 600, "eta_star": 0.5, "seed": 777, "replicates": 60},
    "eta_grid": [0.3, 0.5, 0.7],
    "a_grid": [0.2, 0.5],
}
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(doc, fh)
print(f"\nCLI equivalent: specherit mc-study {fh.name} mc_demo_output")
