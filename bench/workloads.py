"""The benchmark's workloads, each driving specherit's public API from outside.

Every workload is a closed loop with one caller. It builds its inputs from
the seed once in ``prepare``, which is not timed. ``setup`` makes only the
program's own set-up calls and is what ``setup_s`` times. A workload runs
whole passes of public calls in ``run_pass``,
spawns one cold child process per ``cold`` call, and checks its outputs in
``run_pass``, ``cold`` and ``verify``. A work item is what ``throughput``
counts: one estimate, one Monte-Carlo replicate or one trait. Failed
checks are recorded with ``fail`` and counted against ``attempted``.

The program calls go through module attributes (``harness.estimate_files``,
not a name imported from it) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from specherit import harness, inference, likelihood, spectral, synthcohort

SRC = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))

# A cold child calls harness.main through -c: ``python -m specherit.harness``
# prints a runpy RuntimeWarning because the package has no __main__.
CLI_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from specherit.harness import main; raise SystemExit(main(sys.argv[2:]))"
)

# grid_oracle step for the eta_hat checks: the grid argmax lies within one
# step of the exact maximizer, so 5e-4 keeps the 1e-3 tolerance meaningful.
ORACLE_STEP = 5e-4
ORACLE_TOL = 1e-3


def _as_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def spawn(args: list[str], cwd: str) -> tuple[float, str]:
    """Run ``python -c <args>``; return spawn-to-exit seconds and stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", *args], cwd=cwd, capture_output=True, text=True, timeout=150,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold child exited {proc.returncode}: {proc.stderr[-400:]}")
    return elapsed, proc.stdout


class Workload:
    """Shared bookkeeping: attempted work items and failure messages."""

    items_per_pass = 1

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_sha256: str | None = None

    def fail(self, message: str, items: int = 1) -> None:
        self.failures.extend([message] * items)


class EstimateFile(Workload):
    """The CLI user path: a genotype CSV, a phenotype and a covariate file."""

    n, N, eta = 1000, 5000, 0.5

    def prepare(self, seed: int, work: str) -> None:
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(0.1, 0.5, self.N)
        W = (rng.random((self.n, self.N)) < freqs).astype(np.int8)
        W += rng.random((self.n, self.N)) < freqs
        Z = (W - W.mean(axis=0)) / W.std(axis=0)
        u = rng.normal(0.0, math.sqrt(self.eta / self.N), self.N)
        X = np.column_stack([np.ones(self.n), rng.standard_normal((self.n, 2))])
        Y = Z @ u + rng.normal(0.0, math.sqrt(1.0 - self.eta), self.n) + X @ [1.0, 0.5, -0.5]
        self.W, self.X, self.Y = W, X, Y
        self.paths = [os.path.join(work, name) for name in ("geno.csv", "pheno.txt", "covar.csv")]
        # Entries are single digits, so the CSV is built as bytes in one go.
        text = np.full((self.n, 2 * self.N), ord(","), dtype=np.uint8)
        text[:, 0::2] = W + ord("0")
        text[:, -1] = ord("\n")
        with open(self.paths[0], "wb") as fh:
            fh.write(text.tobytes())
        with open(self.paths[1], "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v:.17g}\n" for v in Y))
        with open(self.paths[2], "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X))
        self.work = work

    def setup(self) -> None:
        self.reference = harness.estimate_files(*self.paths, q_assumed=0.5)

    def run_pass(self) -> list[float]:
        self.attempted += 1
        t0 = time.perf_counter()
        doc = harness.estimate_files(*self.paths, q_assumed=0.5)
        elapsed = time.perf_counter() - t0
        if doc != self.reference:
            self.fail("estimate-file: in-process report differs between repetitions")
        return [elapsed]

    def cold(self) -> float:
        self.attempted += 1
        argv = ["estimate", self.paths[0], self.paths[1], "--covariates", self.paths[2],
                "--q", "0.5"]
        elapsed, out = spawn([CLI_CHILD, SRC, *argv], self.work)
        if json.loads(out) != _as_json(self.reference):
            self.fail("estimate-file: CLI child report differs from the in-process report")
        return elapsed

    def verify(self) -> None:
        spec = spectral.decompose(
            spectral.standardize(self.W).Z, spectral.residualize(self.Y, self.X)
        )
        oracle = likelihood.grid_oracle(spec.lambdas, spec.y_rot, ORACLE_STEP)
        eta_hat = self.reference["eta_hat"]
        if abs(eta_hat - oracle) > ORACLE_TOL:
            self.fail(f"estimate-file: eta_hat {eta_hat} vs grid_oracle {oracle}")


class McStudy(Workload):
    """run_study on the genotype design at n=500 with a in {0.1, 2}."""

    n, eta, q, a_grid, replicates = 500, 0.5, 0.5, (0.1, 2.0), 8

    def __init__(self) -> None:
        super().__init__()
        self.items_per_pass = len(self.a_grid) * self.replicates

    def _spec(self, seed: int, replicates: int) -> harness.StudySpec:
        base = synthcohort.SimulationConfig(
            n=self.n, N=int(round(self.n / self.a_grid[0])), eta_star=self.eta, q=self.q,
            seed=seed, replicates=replicates,
        )
        return harness.StudySpec(
            base=base, eta_grid=(self.eta,), a_grid=self.a_grid, q_grid=(self.q,), workers=1,
        )

    def prepare(self, seed: int, work: str) -> None:
        self.work = work
        self.spec = self._spec(seed, self.replicates)
        # The cold child runs one replicate per cell through the CLI; its
        # CSV must equal the in-process run of the same one-replicate spec.
        self.small = self._spec(seed, 1)
        self.small_json = os.path.join(work, "study1.json")
        with open(self.small_json, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self.small), fh)
        self.csv: bytes | None = None

    def setup(self) -> None:
        path, _ = harness.run_study(self.small, os.path.join(self.work, "warm"))
        with open(path, "rb") as fh:
            self.small_csv = fh.read()

    def run_pass(self) -> list[float]:
        self.attempted += self.items_per_pass
        t0 = time.perf_counter()
        path, _ = harness.run_study(self.spec, os.path.join(self.work, "study"))
        elapsed = time.perf_counter() - t0
        with open(path, "rb") as fh:
            data = fh.read()
        if self.csv is None:
            self.csv = data
            self.csv_sha256 = hashlib.sha256(data).hexdigest()
        elif data != self.csv:
            self.fail("mc: replicates.csv differs between repetitions", self.items_per_pass)
        return [elapsed]

    def cold(self) -> float:
        self.attempted += len(self.a_grid)
        out = os.path.join(self.work, "cold")
        elapsed, _ = spawn([CLI_CHILD, SRC, "mc-study", self.small_json, out], self.work)
        with open(os.path.join(out, "replicates.csv"), "rb") as fh:
            if fh.read() != self.small_csv:
                self.fail("mc: CLI child replicates.csv differs from run_study", len(self.a_grid))
        return elapsed

    def verify(self) -> None:
        if self.csv is None:
            return
        rows = list(csv.DictReader(io.StringIO(self.csv.decode("utf-8"))))
        for row in rows:
            if row["error"]:
                self.fail(f"mc: replicate {row['replicate_id']} a={row['a']}: {row['error']}")
        for a in sorted({row["a"] for row in rows}):
            good = [row for row in rows if row["a"] == a and not row["error"]]
            eta_hat = np.array([float(row["eta_hat"]) for row in good])
            se = np.array([float(row["se_sparse"]) for row in good])
            if eta_hat.size < 2:
                continue
            # The larger of the sample SD and the model SE keeps the 4-SD
            # check from firing on an unlucky small-sample SD.
            sd = max(eta_hat.std(ddof=1), se.mean())
            if abs(eta_hat.mean() - self.eta) > 4.0 * sd / math.sqrt(eta_hat.size):
                self.fail(f"mc: cell a={a} mean eta_hat {eta_hat.mean():.4f} vs {self.eta}")


class Traits(Workload):
    """Decompose one cohort once, then solve many traits on its spectrum."""

    n, N, etas, per_eta = 1500, 3000, (0.0, 0.2, 0.5, 0.8), 8

    def __init__(self) -> None:
        super().__init__()
        self.items_per_pass = len(self.etas) * self.per_eta

    def prepare(self, seed: int, work: str) -> None:
        self.work = work
        self.config = synthcohort.SimulationConfig(n=self.n, N=self.N, eta_star=0.5, seed=seed)
        Z = self._decompose()
        rng = np.random.default_rng(seed)
        etas = np.repeat(self.etas, self.per_eta)
        effects = rng.standard_normal((self.N, etas.size)) * np.sqrt(etas / self.N)
        noise = rng.standard_normal((self.n, etas.size)) * np.sqrt(1.0 - etas)
        Y = Z @ effects + noise
        self.traits = [np.ascontiguousarray(Y[:, k]) for k in range(etas.size)]
        self.child_npz = os.path.join(work, "trait0.npz")
        np.savez(self.child_npz, U=self.spec.eigvecs, lambdas=self.spec.lambdas,
                 y=self.traits[0], N=self.N)
        self.reference = self._solve(self.traits[0])[1].to_dict()
        self.reports: list[dict] | None = None

    def setup(self) -> None:
        self._decompose()

    def _decompose(self) -> np.ndarray:
        cohort = synthcohort.simulate_cohort(self.config)
        self.spec = spectral.decompose(cohort.Z, cohort.Y, keep_eigvecs=True)
        return cohort.Z

    def _solve(self, y: np.ndarray):
        lam = self.spec.lambdas
        y_rot = spectral.rotate(self.spec.eigvecs, y)
        result = likelihood.newton_estimate(lam, y_rot)
        report = inference.build_report(lam, y_rot, n_markers=self.N, solver_result=result,
                                        q_assumed=0.5)
        return y_rot, report

    def run_pass(self) -> list[float]:
        self.attempted += len(self.traits)
        latencies, reports, y_rots = [], [], []
        for y in self.traits:
            t0 = time.perf_counter()
            y_rot, report = self._solve(y)
            latencies.append(time.perf_counter() - t0)
            reports.append(report.to_dict())
            y_rots.append(y_rot)
        if self.reports is None:
            self.reports, self.y_rots = reports, y_rots
        else:
            for k, (got, want) in enumerate(zip(reports, self.reports)):
                if got != want:
                    self.fail(f"traits: trait {k} report differs between passes")
        return latencies

    def cold(self) -> float:
        self.attempted += 1
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "from specherit import build_report, newton_estimate, rotate; "
            "d = np.load(sys.argv[2]); y = rotate(d['U'], d['y']); "
            "r = newton_estimate(d['lambdas'], y); "
            "print(json.dumps(build_report(d['lambdas'], y, n_markers=int(d['N']), "
            "solver_result=r, q_assumed=0.5).to_dict()))"
        )
        elapsed, out = spawn([code, SRC, self.child_npz], self.work)
        if json.loads(out) != _as_json(self.reference):
            self.fail("traits: cold child report differs from the in-process report")
        return elapsed

    def verify(self) -> None:
        if self.reports is None:
            return
        for k, (report, y_rot) in enumerate(zip(self.reports, self.y_rots)):
            oracle = likelihood.grid_oracle(self.spec.lambdas, y_rot, ORACLE_STEP)
            if abs(report["eta_hat"] - oracle) > ORACLE_TOL:
                self.fail(f"traits: trait {k} eta_hat {report['eta_hat']} vs grid_oracle {oracle}")
            if not (math.isfinite(report["se_q1"]) and math.isfinite(report["se_sparse"])):
                self.fail(f"traits: trait {k} has a non-finite standard error")


WORKLOADS = {"estimate-file": EstimateFile, "mc-study": McStudy, "traits": Traits}
