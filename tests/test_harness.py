import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from specherit import (
    ConfigurationError,
    DataParseError,
    SimulationConfig,
    StudySpec,
    estimate_from_design,
    mp_check,
    run_study,
    simulate_cohort,
    summarize_replicates,
)
from specherit.harness import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    estimate_files,
    main,
    read_covariates,
    read_genotypes,
    read_phenotype,
    write_genotypes,
    write_phenotype,
)


@pytest.fixture()
def cohort_files(tmp_path):
    config = SimulationConfig(n=60, N=120, eta_star=0.5, seed=404)
    cohort = simulate_cohort(config)
    geno = tmp_path / "geno.csv"
    pheno = tmp_path / "pheno.txt"
    write_genotypes(geno, cohort.genotypes.entries)
    write_phenotype(pheno, cohort.Y)
    return cohort, str(geno), str(pheno)


# ---------------------------------------------------------------------------
# readers and writers
# ---------------------------------------------------------------------------


def test_genotype_round_trip(cohort_files, tmp_path):
    cohort, geno, _ = cohort_files
    assert np.array_equal(read_genotypes(geno), cohort.genotypes.entries)


def test_genotype_tab_and_header(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("m1\tm2\tm3\n0\t1\t2\n2\t1\t0\n")
    W = read_genotypes(str(path))
    assert np.array_equal(W, [[0, 1, 2], [2, 1, 0]])


def test_genotype_bad_entry_reports_line(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1,2\n0,3,1\n")
    with pytest.raises(DataParseError) as excinfo:
        read_genotypes(str(path))
    assert "line 2" in str(excinfo.value)


def test_genotype_non_numeric_reports_error(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1,2\n0,x,1\n")
    with pytest.raises(DataParseError):
        read_genotypes(str(path))


def test_phenotype_round_trip_and_errors(tmp_path):
    path = tmp_path / "p.txt"
    values = np.array([1.25, -3.5, 0.0, 1e-17])
    write_phenotype(path, values)
    assert np.array_equal(read_phenotype(str(path)), values)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(DataParseError) as excinfo:
        read_phenotype(str(bad))
    assert "line 2" in str(excinfo.value)
    for token in ("nan", "inf", "-inf", "1e309"):
        bad.write_text(f"1.0\n2.0\n{token}\n")
        with pytest.raises(DataParseError) as excinfo:
            read_phenotype(str(bad))
        assert f"{bad}: line 3" in str(excinfo.value)


def test_covariates_reader(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("age,sex\n30,1\n40,0\n50,1\n")
    X = read_covariates(str(path))
    assert X.shape == (3, 2)
    for token in ("nan", "inf", "-inf"):
        path.write_text(f"age,sex\n30,1\n40,{token}\n50,1\n")
        with pytest.raises(DataParseError) as excinfo:
            read_covariates(str(path))
        assert f"{path}: line 3, column 2" in str(excinfo.value)


def test_readers_report_file_lines_past_blank_lines(tmp_path):
    # np.loadtxt skips blank and comment-only lines; errors name the file line
    path = tmp_path / "c.csv"
    path.write_text("1,2\n\n3,4\n5,nan\n")
    with pytest.raises(DataParseError) as excinfo:
        read_covariates(str(path))
    assert f"{path}: line 4, column 2" in str(excinfo.value)
    path.write_text("age,sex\n30,1\n\n# note\n\n40,1\n50,inf\n")
    with pytest.raises(DataParseError) as excinfo:
        read_covariates(str(path))
    assert f"{path}: line 7, column 2" in str(excinfo.value)
    geno = tmp_path / "g.csv"
    geno.write_text("0,1,2\n\n2,1,0\n\n\n0,3,1\n")
    with pytest.raises(DataParseError) as excinfo:
        read_genotypes(str(geno))
    assert f"{geno}: line 6, column 2" in str(excinfo.value)


# ---------------------------------------------------------------------------
# estimation from files
# ---------------------------------------------------------------------------


def test_estimate_files_matches_in_memory(cohort_files):
    cohort, geno, pheno = cohort_files
    doc = estimate_files(geno, pheno)
    direct = estimate_from_design(cohort.Z, cohort.Y)
    assert abs(doc["eta_hat"] - direct.eta_hat) <= 1e-12
    assert abs(doc["sigma2_hat"] - direct.sigma2_hat) <= 1e-12
    assert doc["inputs"]["genotype"]["rows"] == 60
    assert doc["inputs"]["genotype"]["cols"] == 120
    assert len(doc["inputs"]["genotype"]["sha256"]) == 64


def test_estimate_files_sparse_flag(cohort_files):
    _, geno, pheno = cohort_files
    doc = estimate_files(geno, pheno, q_assumed=0.5)
    assert doc["q_assumed"] == 0.5
    assert doc["tau_n2"] > 0.0
    assert doc["se_sparse"] >= doc["se_q1"]


def test_estimate_files_with_covariates(cohort_files, tmp_path):
    cohort, geno, pheno = cohort_files
    covar = tmp_path / "covar.csv"
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 2))
    np.savetxt(covar, X, delimiter=",")
    doc = estimate_files(geno, pheno, str(covar))
    assert "covariates" in doc["inputs"]
    assert 0.0 <= doc["eta_hat"] <= 0.99


def test_estimate_files_monomorphic_paths(tmp_path, cohort_files):
    cohort, _, pheno = cohort_files
    W = cohort.genotypes.entries.copy()
    W[:, 3] = 1  # force one constant column
    geno = tmp_path / "mono.csv"
    write_genotypes(geno, W)
    from specherit import MonomorphicColumnError

    with pytest.raises(MonomorphicColumnError):
        estimate_files(str(geno), pheno)
    doc = estimate_files(str(geno), pheno, drop_monomorphic=True)
    assert doc["dropped_monomorphic_columns"] == [3]


# ---------------------------------------------------------------------------
# simulate and mc-study commands
# ---------------------------------------------------------------------------


def _write_config(tmp_path, **overrides):
    doc = {"n": 40, "N": 80, "eta_star": 0.5, "seed": 11, "replicates": 4}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cmd_simulate_outputs(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "cohort"
    assert main(["simulate", str(config), str(out)]) == EXIT_OK
    W = read_genotypes(str(out / "genotypes.csv"))
    Y = read_phenotype(str(out / "phenotypes.txt"))
    truth = json.loads((out / "truth.json").read_text())
    assert W.shape == (40, 80)
    assert Y.size == 40
    assert truth["eta_star"] == 0.5
    assert truth["sigma_u2"] == pytest.approx(0.5 / 80)
    # byte-identical on a second run
    first = (out / "genotypes.csv").read_bytes(), (out / "phenotypes.txt").read_bytes()
    assert main(["simulate", str(config), str(out)]) == EXIT_OK
    assert first == ((out / "genotypes.csv").read_bytes(), (out / "phenotypes.txt").read_bytes())


def test_cmd_estimate_cli_and_exit_codes(tmp_path, capsys):
    config = _write_config(tmp_path, n=50, N=100)
    out = tmp_path / "cohort"
    main(["simulate", str(config), str(out)])
    capsys.readouterr()
    code = main(["estimate", str(out / "genotypes.csv"), str(out / "phenotypes.txt"),
                 "--q", "0.5", "--out", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads((tmp_path / "report.json").read_text())
    assert doc["se_sparse"] >= doc["se_q1"]

    # all-zero phenotype is degenerate data: exit 2
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0.0\n" * 50)
    assert main(["estimate", str(out / "genotypes.csv"), str(zeros)]) == EXIT_DATA

    # missing subcommand / bad flag: usage error, exit 1
    assert main([]) == EXIT_USAGE
    assert main(["estimate"]) == EXIT_USAGE
    assert main(["estimate", "nope.csv", "nope.txt"]) == EXIT_DATA


def test_estimate_cli_writes_strict_json(cohort_files, tmp_path, capsys):
    # mean(y^2) overflows, so sigma2_hat is inf; the report must stay valid JSON
    cohort, geno, _ = cohort_files
    Y = cohort.Y.copy()
    Y[7] = 1e308
    pheno = tmp_path / "huge.txt"
    write_phenotype(pheno, Y)
    out = tmp_path / "report.json"
    assert main(["estimate", geno, str(pheno), "--out", str(out)]) == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert json.loads(out.read_text(), parse_constant=reject) == doc
    assert doc["sigma2_hat"] is None
    assert doc["solver"]["sigma2_hat"] is None
    assert 0.0 <= doc["eta_hat"] <= 0.99


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "specherit", "mp-check", "--n", "80",
         "--N", "160", "--dist", "gaussian", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert set(doc) >= {"ks_distance", "a", "pass"}


def _study_doc(tmp_path, workers=1, replicates=3):
    doc = {
        "base": {"n": 40, "N": 80, "eta_star": 0.5, "seed": 5, "replicates": replicates},
        "eta_grid": [0.3, 0.6],
        "a_grid": [0.5],
        "q_grid": [1.0],
        "workers": workers,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    return path


def test_mc_study_rows_and_summary(tmp_path):
    spec = StudySpec.from_json(_study_doc(tmp_path).read_text())
    replicates_path, summary_path = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 cells x 3 replicates
    for row in rows:
        assert row["error"] == ""
        covered = float(row["ci_lo"]) <= float(row["eta_star"]) <= float(row["ci_hi"])
        assert int(row["covered"]) == int(covered)
    with open(summary_path) as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 2
    # summary is recomputable from the replicate table alone
    assert summarize_replicates(replicates_path) == summary


def test_mc_study_single_replicate(tmp_path):
    spec = StudySpec.from_json(_study_doc(tmp_path, replicates=1).read_text())
    spec = StudySpec(base=spec.base, eta_grid=(0.4,), a_grid=(0.5,), q_grid=(1.0,))
    replicates_path, _ = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_mc_study_determinism_across_workers(tmp_path):
    path = _study_doc(tmp_path)
    spec = StudySpec.from_json(path.read_text())
    rep1, _ = run_study(spec, str(tmp_path / "serial"), workers=1)
    rep2, _ = run_study(spec, str(tmp_path / "parallel"), workers=2)
    assert open(rep1).read() == open(rep2).read()


def test_seed_flags_match_config_seed(tmp_path):
    config = _write_config(tmp_path, n=30, N=60)
    assert main(["simulate", str(config), str(tmp_path / "flag"), "--seed", "12"]) == EXIT_OK
    config = _write_config(tmp_path, n=30, N=60, seed=12)
    assert main(["simulate", str(config), str(tmp_path / "file")]) == EXIT_OK
    for name in ("genotypes.csv", "phenotypes.txt"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    study = _study_doc(tmp_path, replicates=2)
    assert main(["mc-study", str(study), str(tmp_path / "mc_flag"), "--seed", "9"]) == EXIT_OK
    doc = json.loads(study.read_text())
    doc["base"]["seed"] = 9
    study.write_text(json.dumps(doc))
    assert main(["mc-study", str(study), str(tmp_path / "mc_file")]) == EXIT_OK
    flag = (tmp_path / "mc_flag" / "replicates.csv").read_bytes()
    assert flag == (tmp_path / "mc_file" / "replicates.csv").read_bytes()
    assert b",9," in flag


def test_mc_study_large_cell_guard(tmp_path):
    doc = {
        "base": {"n": 40, "N": 80, "eta_star": 0.5, "seed": 5, "replicates": 1},
        "a_grid": [0.001],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    spec = StudySpec.from_json(path.read_text())
    with pytest.raises(ConfigurationError):
        run_study(spec, str(tmp_path / "out"))
    assert main(["mc-study", str(path), str(tmp_path / "out")]) == EXIT_USAGE


def test_mc_study_sparse_grid_records_sparse_pivot(tmp_path):
    doc = {
        "base": {"n": 50, "N": 100, "eta_star": 0.6, "seed": 2, "replicates": 2},
        "q_grid": [0.5],
        "design": "gaussian",
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    spec = StudySpec.from_json(path.read_text())
    replicates_path, _ = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["se_sparse"]) >= float(row["se_q1"])
        assert row["pivot_sparse"] != ""


# ---------------------------------------------------------------------------
# mp-check
# ---------------------------------------------------------------------------


def test_mp_check_small_degenerate():
    doc = mp_check(2, 2, "gaussian", seed=3)
    assert np.isfinite(doc["ks_distance"])
    assert doc["a"] == 1.0


def test_mp_check_invalid_dist():
    with pytest.raises(ConfigurationError):
        mp_check(10, 10, "uniform", 0)


# ---------------------------------------------------------------------------
# error handling details
# ---------------------------------------------------------------------------


def test_estimate_dimension_mismatch_exits_2(cohort_files, tmp_path):
    _, geno, _ = cohort_files
    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n")
    assert main(["estimate", geno, str(short)]) == EXIT_DATA


def test_cli_bad_inits_is_usage_error(cohort_files):
    _, geno, pheno = cohort_files
    assert main(["estimate", geno, pheno, "--inits", "0.1,zap"]) == EXIT_USAGE
    assert main(["estimate", geno, pheno, "--inits", "0.999"]) == EXIT_USAGE
    assert main(["estimate", geno, pheno, "--delta", "0.7"]) == EXIT_USAGE


def test_cli_solver_flags_change_search_interval(cohort_files, capsys):
    _, geno, pheno = cohort_files
    assert main(["estimate", geno, pheno, "--delta", "0.05", "--inits", "0.2,0.6"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["solver"]["iterations_per_start"]) == 2
    assert doc["eta_hat"] <= 0.99


def test_study_records_per_replicate_failures(tmp_path, monkeypatch):
    import specherit.harness as harness

    real = harness.estimate_from_design
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            from specherit import DegenerateDataError

            raise DegenerateDataError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "estimate_from_design", flaky)
    spec = StudySpec(
        base=SimulationConfig(n=40, N=80, eta_star=0.5, seed=5, replicates=3)
    )
    replicates_path, summary_path = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        rows = list(csv.DictReader(fh))
    errors = [row for row in rows if row["error"]]
    assert len(rows) == 3 and len(errors) == 1
    assert "DegenerateDataError" in errors[0]["error"]
    assert errors[0]["eta_hat"] == ""
    with open(summary_path) as fh:
        summary = list(csv.DictReader(fh))[0]
    assert summary["errors"] == "1"
