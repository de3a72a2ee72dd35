import csv
import dataclasses
import hashlib
import itertools
import json
import os
import re
import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherit import (
    ConfigurationError,
    DataError,
    SimulationConfig,
    StudySpec,
    build_report,
    decompose,
    estimate_from_design,
    mp_check,
    newton_estimate,
    residualize,
    run_study,
    simulate_cohort,
    standardize,
    study_records,
)
from specherit import harness
from specherit.harness import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    estimate_files,
    main,
    read_covariates,
    read_genotypes,
    read_phenotype,
    summarize_replicates,
    write_genotypes,
    write_phenotype,
)

from conftest import run_child


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
    with pytest.raises(DataError) as excinfo:
        read_genotypes(str(path))
    assert "line 2" in str(excinfo.value)


def test_genotype_non_numeric_reports_error(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1,2\n0,x,1\n")
    with pytest.raises(DataError, match=f"^{path}: line 2, column 2: 'x' is not a number$"):
        read_genotypes(str(path))


def _general_reader(path):
    """``np.loadtxt`` behind the header sniffer and file-line errors, alone."""
    M = harness._read_matrix(
        path, "genotype", lambda M: np.isin(M, (0.0, 1.0, 2.0)), "not in {0, 1, 2}"
    )
    return M.astype(np.int8)


@settings(max_examples=60, deadline=None)
@given(
    W=st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 2), min_size=cols, max_size=cols), min_size=1, max_size=6
        )
    ),
    delim=st.sampled_from([",", "\t"]),
    header=st.booleans(),
    final_newline=st.booleans(),
    crlf=st.booleans(),
)
def test_single_digit_files_decode_like_loadtxt(
    tmp_path_factory, W, delim, header, final_newline, crlf
):
    lines = [delim.join(str(v) for v in row) for row in W]
    if header:
        lines.insert(0, delim.join(f"m{j}" for j in range(len(W[0]))))
    lf = ("\n".join(lines) + ("\n" if final_newline else "")).encode()
    data = lf.replace(b"\n", b"\r\n") if crlf else lf  # every line, header included
    path = tmp_path_factory.mktemp("geno") / "g.csv"
    path.write_bytes(data)
    decoded = harness._decode_digits(data)  # the byte decoder takes it
    assert decoded is not None and np.array_equal(decoded, harness._decode_digits(lf))
    got = read_genotypes(str(path))
    expected = np.loadtxt(path, delimiter=delim, skiprows=int(header), ndmin=2).astype(np.int8)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert np.array_equal(got, expected)
    assert np.array_equal(got, _general_reader(str(path)))


@pytest.mark.parametrize(
    "text",
    [
        "0,1,2\r\n2,1,0\r\n",
        "m1,m2,m3\r\n0,1,2\n2,1,0\n",
        "m1,m2,m3\n0,1,2\r\n2,1,0\r\n",
        "0,1,2\r\n2,1,0\n",
        "0,1,2\n2,1,0\r\n",
        "0,1,2\r\n2,1,0\r",
        "# cohort A\n0,1,2\n2,1,0\n",
        "0,1,2\n2,1,0  # note\n",
        "0,1,2\n\n2,1,0\n",
        "m1,m2,m3\n\n0,1,2\n",
        "0,1,2\n2,1,0\n\n",
        "0,1.0,2\n2,1,0\n",
        "0, 1,2\n2,1,0\n",
        " 0,1,2\n2,1,0\n",
        "0,10,2\n2,1,0\n",
        "0,1,2\n2,3,0\n",
        "0\t1\t2\n2\t-1\t0\n",
        "0,1,2\n2,x,0\n",
        "0,1,2\n2,1\n",
        "0,1,2\n2,1,0,1\n",
        "0,1\n12\n",
        "m1\tm2\n0\t1\n\n1\t1_0\n",
        "m1\tm2\n0,1\n",
        "0,,2\n2,,0\n",
        "0;1\n1;2\n",
        "0,1\n1,2,0,1\n",
        "",
    ],
    ids=["crlf", "crlf-header", "lf-header-crlf-rows", "crlf-then-lf", "lf-then-crlf",
         "crlf-then-cr", "comment-line", "trailing-comment", "blank-line",
         "blank-after-header", "trailing-blank", "float", "space", "leading-space",
         "two-digits", "three", "minus-one-tab", "letter", "short-row", "long-row",
         "no-delimiter", "digit-separator", "mixed-delimiters", "empty-field",
         "semicolon", "double-width-row", "empty"],
)
def test_near_miss_files_read_like_the_general_parser(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode())
    try:
        expected = _general_reader(str(path))
    except DataError as exc:
        with pytest.raises(DataError) as excinfo:
            read_genotypes(str(path))
        assert str(excinfo.value) == str(exc)
    else:
        got = read_genotypes(str(path))
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert np.array_equal(got, expected)


@pytest.mark.filterwarnings("error")
def test_header_only_files_have_no_values(tmp_path, cohort_files, capsys):
    _, geno, pheno = cohort_files
    path = tmp_path / "header.csv"
    for text in ("m1,m2\n", "m1,m2", "m1\tm2\n# none\n\n"):
        path.write_text(text)
        for reader, kind in ((read_genotypes, "genotype"), (read_covariates, "covariate")):
            with pytest.raises(DataError) as excinfo:
                reader(str(path))
            assert str(excinfo.value) == f"{path}: no {kind} values found"
    assert main(["estimate", str(path), pheno]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: no genotype values found\n"
    assert main(["estimate", geno, pheno, "--covariates", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: no covariate values found\n"


@pytest.mark.parametrize("kind", ["genotype", "phenotype", "covariates"])
@pytest.mark.parametrize("line", [1, 3])
def test_non_utf8_byte_is_a_parse_error_of_its_line(tmp_path, cohort_files, capsys, kind, line):
    """A byte that is not UTF-8 ends the CLI with exit 2 and the file line,
    not a ``UnicodeDecodeError`` traceback."""
    cohort, geno, pheno = cohort_files
    if kind == "genotype":
        lines = [",".join(map(str, row)).encode() for row in cohort.genotypes.entries]
    elif kind == "phenotype":
        lines = [f"{v}".encode() for v in cohort.Y]
    else:
        lines = [f"{v},1".encode() for v in np.arange(60.0) ** 2]
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    argv = {
        "genotype": [str(path), pheno],
        "phenotype": [geno, str(path)],
        "covariates": [geno, pheno, "--covariates", str(path)],
    }[kind]
    assert main(["estimate", *argv]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: line {line}: byte 0xff is not UTF-8\n"


def test_a_number_with_a_digit_separator_is_data_not_a_header(tmp_path):
    """``1_0`` parses as a float, so the first row is data, which
    ``np.loadtxt`` then rejects; it is not skipped as a header."""
    path = tmp_path / "c.csv"
    path.write_text("1_0,2.5\n3,4\n5,6\n")
    with pytest.raises(DataError) as excinfo:
        read_covariates(str(path))
    assert str(excinfo.value) == f"{path}: line 1, column 1: '1_0' is not a number"


def test_write_genotypes_matches_per_entry_format(cohort_files, tmp_path):
    cohort, geno, _ = cohort_files
    W = cohort.genotypes.entries
    expected = "".join(",".join(str(int(v)) for v in row) + "\n" for row in W).encode()
    assert Path(geno).read_bytes() == expected
    path = tmp_path / "g.csv"
    for entries in (W.astype(np.int64), W.astype(np.float64), W.tolist()):
        write_genotypes(path, entries)
        assert path.read_bytes() == expected
    for value in (3, -1, 0.5):
        bad = W.astype(np.float64)
        bad[5, 7] = value
        with pytest.raises(ConfigurationError, match="must all be in"):
            write_genotypes(path, bad)


def test_phenotype_round_trip_and_errors(tmp_path):
    path = tmp_path / "p.txt"
    values = np.array([1.25, -3.5, 0.0, 1e-17])
    write_phenotype(path, values)
    assert np.array_equal(read_phenotype(str(path)), values)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(DataError) as excinfo:
        read_phenotype(str(bad))
    assert "line 2" in str(excinfo.value)
    for token in ("nan", "inf", "-inf", "1e309"):
        bad.write_text(f"1.0\n2.0\n{token}\n")
        with pytest.raises(DataError) as excinfo:
            read_phenotype(str(bad))
        assert f"{bad}: line 3" in str(excinfo.value)


def test_covariates_reader(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("age,sex\n30,1\n40,0\n50,1\n")
    X = read_covariates(str(path))
    assert X.shape == (3, 2)
    for token in ("nan", "inf", "-inf"):
        path.write_text(f"age,sex\n30,1\n40,{token}\n50,1\n")
        with pytest.raises(DataError) as excinfo:
            read_covariates(str(path))
        assert f"{path}: line 3, column 2" in str(excinfo.value)


def test_readers_report_file_lines_past_blank_lines(tmp_path):
    # np.loadtxt skips blank and comment-only lines; errors name the file line
    path = tmp_path / "c.csv"
    path.write_text("1,2\n\n3,4\n5,nan\n")
    with pytest.raises(DataError) as excinfo:
        read_covariates(str(path))
    assert f"{path}: line 4, column 2" in str(excinfo.value)
    path.write_text("age,sex\n30,1\n\n# note\n\n40,1\n50,inf\n")
    with pytest.raises(DataError) as excinfo:
        read_covariates(str(path))
    assert f"{path}: line 7, column 2" in str(excinfo.value)
    geno = tmp_path / "g.csv"
    geno.write_text("0,1,2\n\n2,1,0\n\n\n0,3,1\n")
    with pytest.raises(DataError) as excinfo:
        read_genotypes(str(geno))
    assert f"{geno}: line 6, column 2" in str(excinfo.value)


def test_readers_find_the_header_past_blank_and_comment_lines(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("\n0,1\n1,2\n")
    assert np.array_equal(read_genotypes(str(path)), [[0, 1], [1, 2]])
    path.write_text("# cohort A\nm1,m2\n0,1\n1,2\n")
    assert np.array_equal(read_genotypes(str(path)), [[0, 1], [1, 2]])
    path.write_text("\n# x\n\n")
    with pytest.raises(DataError, match="no genotype values found"):
        read_genotypes(str(path))


def test_readers_report_parse_errors_by_file_line(tmp_path):
    # np.loadtxt counts data rows from 0 for conversions and from 1 for
    # column counts; the reader names the file line and column instead
    path = tmp_path / "c.csv"
    path.write_text("1,2\n\n\n3,4\n5,x\n")
    with pytest.raises(DataError) as excinfo:
        read_covariates(str(path))
    assert str(excinfo.value) == f"{path}: line 5, column 2: 'x' is not a number"
    path.write_text("age,sex\n# note\n30,1\n\n40,1,7\n")
    with pytest.raises(DataError) as excinfo:
        read_covariates(str(path))
    assert str(excinfo.value) == f"{path}: line 5: 3 columns, expected 2"
    geno = tmp_path / "g.tsv"
    geno.write_text("m1\tm2\n0\t1\n\n1\t1_0\n")
    with pytest.raises(DataError) as excinfo:
        read_genotypes(str(geno))
    assert str(excinfo.value) == f"{geno}: line 4, column 2: '1_0' is not a number"


def test_phenotype_reader_skips_comments(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# trait: height\n1.5\n\n2.5  # outlier?\n# end\n-1\n")
    assert np.array_equal(read_phenotype(str(path)), [1.5, 2.5, -1.0])
    path.write_text("# trait: height\n1.5\n# note\nnan\n")
    with pytest.raises(DataError) as excinfo:
        read_phenotype(str(path))
    assert f"{path}: line 4" in str(excinfo.value)


# One table for the three readers: the same text reads the same way in a
# phenotype, a covariate and a genotype file (general parser), and each fault
# has one message, ``{kind}`` and ``{rule}`` being the reader's.
READERS = [
    pytest.param(read_phenotype, "phenotype", "is not finite", id="phenotype"),
    pytest.param(read_covariates, "covariate", "is not finite", id="covariate"),
    pytest.param(read_genotypes, "genotype", "not in {0, 1, 2}", id="genotype"),
]


@pytest.mark.parametrize("reader, kind, rule", READERS)
@pytest.mark.parametrize("data, message", [
    pytest.param(b"1\n1_0\n", "line 2, column 1: '1_0' is not a number", id="digit-separator"),
    pytest.param("1\n\u0661\n".encode(), "line 2, column 1: '\u0661' is not a number",
                 id="arabic-indic-digit"),
    pytest.param(b"1\nnan\n", "line 2, column 1: {kind} entry nan {rule}", id="nan"),
    pytest.param(b"1\n-inf\n", "line 2, column 1: {kind} entry -inf {rule}", id="inf"),
    pytest.param(b"1\n1e309\n", "line 2, column 1: {kind} entry inf {rule}", id="overflow"),
    pytest.param(b"1\n1\xff\n", "line 2: byte 0xff is not UTF-8", id="non-utf8"),
    pytest.param(b"1\n1,1\n", "line 2: 2 columns, expected 1", id="ragged"),
    pytest.param(b"value\n\n# none\n", "no {kind} values found", id="header-only"),
    pytest.param(b"# a\n\n1\n  \n1 # b\n1_0\n", "line 6, column 1: '1_0' is not a number",
                 id="digit-separator-past-blanks"),
    pytest.param(b"value\n1\n\n# a\n  # b\n2\ninf\n", "line 7, column 1: {kind} entry inf {rule}",
                 id="inf-past-header-and-blanks"),
])
def test_one_rule_table_for_the_three_readers(tmp_path, reader, kind, rule, data, message):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(DataError) as excinfo:
        reader(str(path))
    assert str(excinfo.value) == f"{path}: " + message.format(kind=kind, rule=rule)


@pytest.mark.parametrize("reader, kind, rule", READERS)
def test_the_three_readers_share_the_header_and_blank_line_rules(tmp_path, reader, kind, rule):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# a\nvalue\n  \n1\n2 # b\n\t\n0\n")
    assert np.array_equal(np.ravel(reader(str(path))), [1, 2, 0])


def test_phenotype_lines_hold_one_column(tmp_path):
    path = tmp_path / "p.txt"
    # the first data line sets the delimiter, as in the other two files
    for text, k in (("1.5,2.5\n3,4\n", 1), ("1.5\n2.5,3\n", 2), ("y\n1\n2,3\n", 3),
                    ("1.5\t2.5\n3\t4\n", 1)):
        path.write_text(text)
        with pytest.raises(DataError) as excinfo:
            read_phenotype(str(path))
        assert str(excinfo.value) == f"{path}: line {k}: 2 columns, expected 1"


# ---------------------------------------------------------------------------
# estimation from files
# ---------------------------------------------------------------------------


def test_estimate_files_matches_in_memory(cohort_files):
    cohort, geno, pheno = cohort_files
    doc = estimate_files(geno, pheno)
    direct = estimate_from_design(cohort.Z, cohort.Y - cohort.Y.mean())  # the fitted intercept
    assert abs(doc["eta_hat"] - direct.eta_hat) <= 1e-12
    assert abs(doc["sigma2_hat"] - direct.sigma2_hat) <= 1e-12
    assert doc["inputs"]["genotype"]["rows"] == 60
    assert doc["inputs"]["genotype"]["cols"] == 120
    assert len(doc["inputs"]["genotype"]["sha256"]) == 64


def test_estimate_files_opens_each_input_once(cohort_files, tmp_path, monkeypatch):
    _, geno, pheno = cohort_files
    covar = tmp_path / "covar.csv"
    np.savetxt(covar, np.random.default_rng(1).standard_normal((60, 2)), delimiter=",")
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    estimate_files(geno, pheno, str(covar))
    assert sorted(opened) == sorted([geno, pheno, str(covar)])


def test_piped_input_is_fingerprinted_from_its_bytes(cohort_files):
    # the fingerprint hashes the bytes that were parsed, so a pipe read once is named right
    _, geno, pheno = cohort_files
    text = Path(pheno).read_text()
    proc = run_child("-m", "specherit", "estimate", geno, "/dev/stdin", input=text)
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["inputs"]["phenotype"]["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert doc["inputs"]["phenotype"]["rows"] == 60
    assert abs(doc["eta_hat"] - estimate_files(geno, pheno)["eta_hat"]) <= 1e-12


def test_estimate_files_fits_the_phenotype_mean(cohort_files, tmp_path):
    """A shifted and rescaled phenotype file gives the same estimate, with or
    without covariates; covariates that span 1 (a constant column, indicators
    of every level) stand for the intercept."""
    cohort, geno, _ = cohort_files
    x = np.random.default_rng(0).standard_normal((60, 1))
    covariates = {"none": None}
    for name, X in (("x", x), ("1x", np.column_stack([np.full(60, 2.0), x])),
                    ("levels", np.eye(3)[np.arange(60) % 3])):
        covariates[name] = str(tmp_path / f"{name}.csv")
        np.savetxt(covariates[name], X, delimiter=",")
    fits = {}
    for label, Y in (("Y", cohort.Y), ("shifted", 170.0 + 10.0 * cohort.Y),
                     ("centered", cohort.Y - cohort.Y.mean())):
        pheno = tmp_path / f"{label}.txt"
        write_phenotype(pheno, Y)
        for name in covariates:
            fits[label, name] = estimate_files(geno, str(pheno), covariates[name])["eta_hat"]
    for name in covariates:
        assert abs(fits["shifted", name] - fits["Y", name]) <= 1e-9
        assert abs(fits["centered", name] - fits["Y", name]) <= 1e-9
    assert abs(fits["Y", "1x"] - fits["Y", "x"]) <= 1e-9


@pytest.mark.parametrize("N", [900, 150], ids=["n-side", "gram-side"])
@pytest.mark.parametrize("with_covariates", [False, True], ids=["no-covariates", "covariates"])
def test_estimate_files_invariances(tmp_path, N, with_covariates):
    """eta_hat does not move when the phenotype is shifted and rescaled, when
    the samples (rows of every file) or the markers are permuted, or when the
    allele counts are flipped (W -> 2 - W)."""
    n = 300
    cohort = simulate_cohort(SimulationConfig(n=n, N=N, eta_star=0.5, seed=41))
    rng = np.random.default_rng(41)
    W, Y, X = cohort.genotypes.entries, cohort.Y, rng.standard_normal((n, 2))
    rows, columns = rng.permutation(n), rng.permutation(N)
    variants = {
        "as-drawn": (W, Y, X),
        "affine": (W, 10.0 * Y + 170.0, X),
        "rows": (W[rows], Y[rows], X[rows]),
        "columns": (W[:, columns], Y, X),
        "flipped": (2 - W, Y, X),
    }
    fits = {}
    for name, (W_, Y_, X_) in variants.items():
        paths = [tmp_path / f"{name}.{ext}" for ext in ("geno.csv", "pheno.txt", "covar.csv")]
        write_genotypes(paths[0], W_)
        write_phenotype(paths[1], Y_)
        np.savetxt(paths[2], X_, delimiter=",")
        covar = str(paths[2]) if with_covariates else None
        fits[name] = estimate_files(str(paths[0]), str(paths[1]), covar)["eta_hat"]
    assert fits["as-drawn"] > 0.0
    for name, eta_hat in fits.items():
        assert abs(eta_hat - fits["as-drawn"]) <= 1e-12, name


def test_covariates_leave_no_residual_beside_the_intercept(cohort_files, tmp_path, capsys):
    _, geno, pheno = cohort_files
    covar = tmp_path / "wide.csv"
    np.savetxt(covar, np.random.default_rng(0).standard_normal((60, 59)), delimiter=",")
    assert main(["estimate", geno, pheno, "--covariates", str(covar)]) == EXIT_DATA
    want = f"error: {covar}: need p < n - 1 covariates besides the intercept, got p=59, n=60\n"
    assert capsys.readouterr().err == want


NO_SIGNAL = "the phenotype is constant, or spanned by the covariates and the intercept"


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_phenotype_without_signal_fails_at_its_file(cohort_files, tmp_path, capsys, scale):
    """A constant phenotype, or one that the covariates and the intercept
    span, leaves only round-off once projected: its file is refused, through
    the library and the CLI, at any scale. A part outside the span of 1e-6
    of the phenotype's norm is still estimated."""
    cohort, geno, _ = cohort_files
    x = np.random.default_rng(0).standard_normal(60)
    covar = str(tmp_path / "x.csv")
    np.savetxt(covar, x, delimiter=",")
    spanned = 2.0 + 3.0 * x
    for name, Y, options in (("constant", np.full(60, 0.3), []),
                             ("spanned", spanned, ["--covariates", covar])):
        pheno = str(tmp_path / f"{name}.txt")
        write_phenotype(pheno, scale * Y)
        with pytest.raises(DataError, match=f"^{re.escape(pheno)}: {NO_SIGNAL}$"):
            estimate_files(geno, pheno, *options[1:])
        assert main(["estimate", geno, pheno, *options]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {pheno}: {NO_SIGNAL}\n"
    outside = residualize(cohort.Y, np.column_stack([np.ones(60), x]))
    pheno = str(tmp_path / "near.txt")
    write_phenotype(pheno, scale * (spanned + 1e-6 * np.linalg.norm(spanned) /
                                    np.linalg.norm(outside) * outside))
    doc = estimate_files(geno, pheno, covar)
    assert 0.0 < doc["eta_hat"] < 0.99 and doc["sigma2_hat"] > 0.0


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

    with pytest.raises(MonomorphicColumnError) as excinfo:
        estimate_files(str(geno), pheno)
    assert excinfo.value.columns == (3,)
    assert str(excinfo.value) == (
        f"{geno}: monomorphic (zero-variance) columns cannot be standardized: [3]"
    )
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


def test_cmd_simulate_failure_leaves_no_directory(tmp_path, capsys):
    # n = 2 at allele frequencies of 1-2% leaves 47 of 50 columns monomorphic
    config = _write_config(tmp_path, n=2, N=50, seed=1, freq_lo=0.01, freq_hi=0.02)
    out = tmp_path / "cohort"
    assert main(["simulate", str(config), str(out)]) == EXIT_DATA
    assert "monomorphic" in capsys.readouterr().err
    assert not out.exists()


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


def test_harness_module_runs_without_runpy_warning():
    # the package no longer imports harness, so runpy finds it unloaded
    proc = run_child("-m", "specherit.harness", "mp-check", "--n", "40", "--N", "80", "--seed", "1")
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


def test_cli_entry_point_runs():
    proc = run_child("-m", "specherit", "mp-check", "--n", "80",
                     "--N", "160", "--dist", "gaussian", "--seed", "1")
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


def test_summary_orders_cells_numerically(tmp_path):
    # a = 10 sorts before a = 2 as a string
    spec = StudySpec(base=SimulationConfig(n=40, N=80, eta_star=0.5, seed=5, replicates=2),
                     a_grid=(0.5, 2, 10), design="gaussian")
    replicates_path, summary_path = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        cells = list(dict.fromkeys(row["a"] for row in csv.DictReader(fh)))
    with open(summary_path) as fh:
        summary = [row["a"] for row in csv.DictReader(fh)]
    assert summary == cells == ["0.5", "2", "10"]


def test_mc_study_single_replicate(tmp_path):
    spec = StudySpec.from_json(_study_doc(tmp_path, replicates=1).read_text())
    spec = StudySpec(base=spec.base, eta_grid=(0.4,), a_grid=(0.5,), q_grid=(1.0,))
    replicates_path, _ = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_allow_large_guards_wide_cells(tmp_path, capsys):
    doc = {"base": {"n": 4, "N": 20_001, "eta_star": 0.5, "seed": 1, "replicates": 1},
           "design": "gaussian"}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    spec = StudySpec.from_json(path.read_text())
    with pytest.raises(ConfigurationError, match="pass --allow-large to run it anyway"):
        run_study(spec, str(tmp_path / "refused"))
    assert main(["mc-study", str(path), str(tmp_path / "cli")]) == EXIT_USAGE
    assert "--allow-large" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists() and not (tmp_path / "cli").exists()
    run_study(spec, str(tmp_path / "allowed"), allow_large=True)
    assert main(["mc-study", str(path), str(tmp_path / "flag"), "--allow-large"]) == EXIT_OK
    for name in ("replicates.csv", "summary.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "allowed" / name).read_bytes()


def test_mc_study_determinism_across_workers(tmp_path):
    path = _study_doc(tmp_path)
    spec = StudySpec.from_json(path.read_text())
    rep1, _ = run_study(replace(spec, workers=1), str(tmp_path / "serial"))
    rep2, _ = run_study(replace(spec, workers=2), str(tmp_path / "parallel"))
    assert Path(rep1).read_text() == Path(rep2).read_text()


def test_mc_study_cli_pool_matches_serial_in_fresh_processes(tmp_path):
    # the pool is imported only when a run needs one, so start from a cold interpreter
    study = _study_doc(tmp_path, replicates=2)
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers-{workers}"
        proc = run_child("-m", "specherit", "mc-study", str(study), str(out), "--workers", workers)
        assert proc.returncode == EXIT_OK, proc.stderr
        tables.append((out / "replicates.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_mc_study_workers_flag_is_checked_like_the_spec(tmp_path, capsys, workers):
    study = _study_doc(tmp_path, replicates=1)
    assert main(["mc-study", str(study), str(tmp_path / "out"), "--workers", workers]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: workers must be >= 1\n"
    assert not (tmp_path / "out").exists()


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


def test_study_cell_without_markers_is_usage_error(tmp_path):
    # a = 100 rounds N = n / a to 0 for n = 40
    base = SimulationConfig(n=40, N=80, eta_star=0.5, seed=5)
    with pytest.raises(ConfigurationError, match="N=0"):
        StudySpec(base=base, a_grid=(0.5, 100.0))
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"base": {"n": 40, "N": 80, "eta_star": 0.5}, "a_grid": [100]}))
    assert main(["mc-study", str(path), str(tmp_path / "out")]) == EXIT_USAGE


def test_study_cells_are_simulation_configs():
    base = SimulationConfig(n=40, N=80, eta_star=0.5, sigma_star2=2.0, seed=5, replicates=2)
    spec = StudySpec(base=base, eta_grid=(0.2, 0.4), a_grid=(2.0,))
    assert spec.cells() == [
        SimulationConfig(n=40, N=20, eta_star=eta, sigma_star2=2.0, seed=5, replicates=2)
        for eta in (0.2, 0.4)
    ]
    assert StudySpec(base=base).cells() == [base]


def test_study_spec_json_round_trip():
    # the document form of a study, as a cold `mc-study` run loads it
    base = SimulationConfig(n=40, N=80, eta_star=0.5, q=0.5, seed=5, replicates=2)
    spec = StudySpec(base=base, eta_grid=(0.2, 0.4), a_grid=(0.5, 2), q_grid=(1.0,),
                     design="gaussian", workers=2, ci_level=0.9)
    assert StudySpec.from_json(json.dumps(dataclasses.asdict(spec))) == spec


_BASE_SHAPE = "simulation config must be a JSON object with n, N, eta_star"
_REPEATED = "study grid repeats the cell eta_star={}, N={}, q={}"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"workers": "two"}, "workers must be an integer, got 'two'"),
        ({"eta_grid": 0.5}, "invalid study spec: 'float' object is not iterable"),
        ({"base": {"n": "40", "N": 80, "eta_star": 0.5}}, "n must be an integer, got '40'"),
        # a bad base reads as the same document would under `simulate`
        ({"base": {"n": 40, "N": 80, "eta_star": 0.5, "seeds": 3}},
         "unknown simulation config fields: ['seeds']"),
        ({"worker": 2}, "unknown study spec fields: ['worker']"),
        ({"outputs": {"replicates": "r.csv"}}, "unknown study spec fields: ['outputs']"),
        ({"eta_grid": [0.5, 1.5]}, "eta_star must be in [0, 1), got 1.5"),
        ({"workers": 2.7}, "workers must be an integer, got 2.7"),
        ({"workers": "3"}, "workers must be an integer, got '3'"),
        ({"workers": True}, "workers must be an integer, got True"),
        ({"ci_level": "0.9"}, "level must be a number, got '0.9'"),
        ({"a_grid": [True]}, "a grid value must be a number, got True"),
        ({"eta_grid": [False]}, "eta_star must be a number, got False"),
        ({"base": {"n": 40, "N": 80, "eta_star": 0.5, "replicates": 1, "q": True}},
         "q must be a number, got True"),
        ({"base": {"n": 40}}, _BASE_SHAPE),
        ({"base": 5}, _BASE_SHAPE),
        # a repeated cell would be summarized as one, each draw counted twice
        ({"a_grid": [0.5, 0.5], "design": "gaussian"}, _REPEATED.format(0.5, 80, 1.0)),
        ({"a_grid": [0.5, 0.5000001]}, _REPEATED.format(0.5, 80, 1.0)),
        ({"eta_grid": [0.2, 0.4, 0.2]}, _REPEATED.format(0.2, 80, 1.0)),
        ({"q_grid": [0.5, 1, 0.5]}, _REPEATED.format(0.5, 80, 0.5)),
    ],
    ids=["workers-str", "grid-scalar", "base-n-str", "base-unknown", "unknown-key",
         "outputs", "eta-out-of-range", "workers-float", "workers-digit-str", "workers-bool",
         "level-str", "a-bool", "eta-bool", "base-q-bool", "base-missing-keys", "base-scalar",
         "a-repeated", "a-rounds-to-same-N", "eta-repeated", "q-repeated"],
)
def test_malformed_study_json_is_usage_error(tmp_path, capsys, overrides, message):
    doc = {"base": {"n": 40, "N": 80, "eta_star": 0.5, "replicates": 1}, **overrides}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        StudySpec.from_json(path.read_text())
    assert main(["mc-study", str(path), str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"n": "40"}, {"replicates": [2]}, {"N": None}, {"seed": -1}, {"seed": "x"}, {"n": 30.5},
     {"replicates": True}, {"q": True}, {"eta_star": False}, {"q": "0.5"}],
)
def test_malformed_config_json_is_usage_error(tmp_path, capsys, overrides):
    config = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigurationError):
        SimulationConfig.from_json(config.read_text())
    assert main(["simulate", str(config), str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_replicate_csv_header_order(tmp_path):
    spec = StudySpec(base=SimulationConfig(n=30, N=60, eta_star=0.5, seed=1))
    replicates_path, _ = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path, "rb") as fh:
        header = fh.readline()
    assert header == (
        b"replicate_id,seed,eta_star,a,q,n,N,eta_hat,sigma2_hat,se_q1,se_sparse,"
        b"pivot_q1,pivot_sparse,ci_lo,ci_hi,covered,iterations,clamped,error\r\n"
    )


# ---------------------------------------------------------------------------
# mp-check
# ---------------------------------------------------------------------------


def test_mp_check_small_degenerate():
    doc = mp_check(2, 2, "gaussian", seed=3)
    assert np.isfinite(doc["ks_distance"])
    assert doc["a"] == 1.0


@pytest.mark.parametrize("dist", ["gaussian", "genotype"])
def test_mp_check_uses_the_simulated_design(dist, monkeypatch, tmp_path):
    """mp-check takes the spectrum of ``simulate_cohort``'s design, so
    ``specherit simulate`` at the same seed writes the genotypes behind it."""
    from specherit import spectral

    seen, real = [], spectral._kinship_eigenvalues
    monkeypatch.setattr(spectral, "_kinship_eigenvalues", lambda Z: seen.append(Z) or real(Z))
    mp_check(40, 30, dist, seed=9)
    config = SimulationConfig(n=40, N=30, eta_star=0.0, seed=9)
    assert np.array_equal(seen[0], simulate_cohort(config, design=dist).Z)
    if dist == "genotype":
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert main(["simulate", str(path), str(tmp_path / "out")]) == EXIT_OK
        W = read_genotypes(str(tmp_path / "out" / "genotypes.csv"))
        assert np.array_equal(seen[0], standardize(W).Z)


@pytest.mark.parametrize("seed", range(4))
def test_mp_check_bound_allows_for_the_esd_step(seed):
    """The ESD moves in steps of 1/n, so at n = 40 the bound is 4/n = 0.1."""
    doc = mp_check(40, 80, seed=seed)
    assert doc["bound"] == 0.1
    assert doc["pass"] is True
    assert mp_check(200, 400, seed=seed)["bound"] == 0.05


@pytest.mark.parametrize("scale", [1.5, 0.67])
@pytest.mark.parametrize("n", [40, 200])
def test_mp_check_rejects_the_wrong_aspect_ratio(n, scale, monkeypatch):
    """Against a law whose ratio is off by half, the check fails at both shapes."""
    real = harness.MPLaw
    monkeypatch.setattr(harness, "MPLaw", lambda a: real(a * scale))
    for seed in range(4):
        doc = mp_check(n, 2 * n, seed=seed)
        assert doc["pass"] is False, (seed, doc["ks_distance"], doc["bound"])


def test_mp_check_invalid_dist():
    with pytest.raises(ConfigurationError):
        mp_check(10, 10, "uniform", 0)


# ---------------------------------------------------------------------------
# error handling details
# ---------------------------------------------------------------------------


def _cli_fault(tmp_path, case):
    """``(argv, exit code, message)`` of one bad invocation; a message ending
    in ``...`` is argparse's, of which only that prefix is pinned."""
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    geno = write("g.csv", "0,1\n1,2\n2,0\n")
    pheno = write("p.txt", "1.5\n-0.5\n2\n")
    missing = str(tmp_path / "missing.csv")
    return {
        "one-row-genotype": (["estimate", write("g1.csv", "0,1,2\n"), write("p1.txt", "1.5\n")],
                             EXIT_DATA, f"{tmp_path / 'g1.csv'}: need n >= 2, got n=1"),
        "phenotype-digit-separator": (
            ["estimate", geno, write("p2.txt", "1.5\n2\n1_0\n")], EXIT_DATA,
            f"{tmp_path / 'p2.txt'}: line 3, column 1: '1_0' is not a number"),
        "phenotype-nan": (
            ["estimate", geno, write("p3.txt", "1.5\nnan\n2\n")], EXIT_DATA,
            f"{tmp_path / 'p3.txt'}: line 2, column 1: phenotype entry nan is not finite"),
        "rows-disagree": (["estimate", geno, write("p4.txt", "1\n2\n")], EXIT_DATA,
                          f"genotype rows (3) of {geno} and phenotype length (2) of "
                          f"{tmp_path / 'p4.txt'} disagree"),
        "monomorphic-column": (
            ["estimate", write("g5.csv", "0,1\n1,1\n2,1\n"), pheno], EXIT_DATA,
            f"{tmp_path / 'g5.csv'}: monomorphic (zero-variance) columns cannot be "
            "standardized: [1]"),
        "every-column-monomorphic": (
            ["estimate", write("g6.csv", "1,0\n1,0\n1,0\n"), pheno, "--drop-monomorphic"],
            EXIT_DATA, f"{tmp_path / 'g6.csv'}: every one of its 2 columns is monomorphic"),
        "missing-file": (["estimate", missing, pheno], EXIT_DATA,
                         f"[Errno 2] No such file or directory: {missing!r}"),
        "q-0": (["estimate", geno, pheno, "--q", "0"], EXIT_USAGE, "q must be in (0, 1], got 0.0"),
        "level-word": (["estimate", geno, pheno, "--level", "high"], EXIT_USAGE,
                       "argument --level: ..."),
        "unknown-option": (["estimate", geno, pheno, "--inits", "0.1"], EXIT_USAGE,
                           "unrecognized arguments: ..."),
        "missing-argument": (["estimate", geno], EXIT_USAGE, "the following arguments ..."),
        "seed-negative": (["mp-check", "--n", "40", "--N", "80", "--seed", "-1"], EXIT_USAGE,
                          "seed must be >= 0, got -1"),
        "n-1": (["mp-check", "--n", "1", "--N", "80"], EXIT_USAGE, "need n >= 2, got n=1"),
        "n-word": (["mp-check", "--n", "forty", "--N", "80"], EXIT_USAGE, "argument --n: ..."),
        "dist-choice": (["mp-check", "--n", "4", "--N", "8", "--dist", "uniform"], EXIT_USAGE,
                        "argument --dist: ..."),
        "out-in-missing-dir": (
            ["mp-check", "--n", "4", "--N", "8", "--out", missing + "/mp.json"], EXIT_DATA,
            f"[Errno 2] No such file or directory: '{missing}/mp.json'"),
    }[case]


@pytest.mark.parametrize("case", [
    "one-row-genotype", "phenotype-digit-separator", "phenotype-nan", "rows-disagree",
    "monomorphic-column", "every-column-monomorphic", "missing-file", "q-0", "level-word",
    "unknown-option", "missing-argument", "seed-negative", "n-1", "n-word", "dist-choice",
    "out-in-missing-dir",
])
def test_cli_faults_exit_with_one_error_line(tmp_path, case):
    """A bad argument or file ends ``estimate`` and ``mp-check`` with exit 1
    (usage) or 2 (data) and one ``error:`` line on stderr, never a traceback."""
    argv, code, message = _cli_fault(tmp_path, case)
    proc = run_child("-m", "specherit", *argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    if message.endswith("..."):  # argparse prints its usage first
        assert lines[0].startswith("usage: specherit")
        assert lines[-1].startswith(f"error: {message[:-3]}")
    else:
        assert lines == [f"error: {message}"]
    assert [line for line in lines if line.startswith("error: ")] == lines[-1:]


def test_estimate_dimension_mismatch_exits_2(cohort_files, tmp_path):
    _, geno, _ = cohort_files
    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n")
    assert main(["estimate", geno, str(short)]) == EXIT_DATA


@pytest.mark.parametrize("columns", [60, 61])
def test_covariate_file_too_wide_is_a_data_error(cohort_files, tmp_path, capsys, columns):
    """With no fewer covariate columns than rows, the file is at fault:
    exit 2, and the message names the file."""
    _, geno, pheno = cohort_files
    covar = tmp_path / "wide.csv"
    np.savetxt(covar, np.random.default_rng(0).standard_normal((60, columns)), delimiter=",")
    assert main(["estimate", geno, pheno, "--covariates", str(covar)]) == EXIT_DATA
    want = f"error: {covar}: need p < n covariates, got p={columns}, n=60\n"
    assert capsys.readouterr().err == want


def test_cli_bad_inits_is_usage_error(cohort_files):
    # The solver has no starts to choose: --inits is an unknown option.
    _, geno, pheno = cohort_files
    assert main(["estimate", geno, pheno, "--inits", "0.1"]) == EXIT_USAGE
    assert main(["estimate", geno, pheno, "--delta", "0.7"]) == EXIT_USAGE
    # the margin is checked before any file is opened
    assert main(["estimate", "missing.csv", "missing.txt", "--delta", "0.7"]) == EXIT_USAGE


def test_cli_solver_flags_change_search_interval(cohort_files, capsys):
    _, geno, pheno = cohort_files
    assert main(["estimate", geno, pheno, "--delta", "0.05"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["solver"]) == {
        "eta_hat", "sigma2_hat", "newton_steps", "converged", "clamped", "gap", "rows"
    }
    assert doc["eta_hat"] <= 0.95


def test_bench_tracer_reads_the_solver_result(monkeypatch):
    """The benchmark's tracer observes each ``newton_estimate`` solve through
    ``SolverResult`` attributes; one it cannot read would fail every traced
    benchmark pass. The call is the ``traits`` workload's: the estimate path
    solves on a quadrature measure through a private entry instead."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import tracer
    from specherit import likelihood

    cohort = simulate_cohort(SimulationConfig(n=60, N=120, eta_star=0.5, seed=404))
    trace = tracer.Tracer()
    trace.install()
    try:
        spec = decompose(cohort.Z, cohort.Y)
        likelihood.newton_estimate(spec.lambdas, spec.y_rot)
    finally:
        trace.uninstall()
    assert trace.counts["likelihood.solves"] == 1
    assert "likelihood.newton_iterations" in trace.counts
    assert "likelihood.grid_overrides" in trace.counts


BAD_REPORT_OPTIONS = [
    pytest.param({"q_assumed": 0.0}, "q must be in (0, 1], got 0.0", id="q-0"),
    pytest.param({"q_assumed": 1.5}, "q must be in (0, 1], got 1.5", id="q-1.5"),
    pytest.param({"ci_level": 1.5}, "level must be in (0, 1), got 1.5", id="level-1.5"),
    pytest.param({"ci_level": 0.0}, "level must be in (0, 1), got 0.0", id="level-0"),
    # a bool is not a proportion, and a string is not compared with numbers
    pytest.param({"q_assumed": True}, "q must be a number, got True", id="q-bool"),
    pytest.param({"q_assumed": "0.5"}, "q must be a number, got '0.5'", id="q-str"),
    pytest.param({"ci_level": True}, "level must be a number, got True", id="level-bool"),
    pytest.param({"ci_level": "0.9"}, "level must be a number, got '0.9'", id="level-str"),
    # q is checked first, as build_report reaches it first
    pytest.param({"q_assumed": -1.0, "ci_level": 1.5}, "q must be in (0, 1], got -1.0", id="both"),
]


def forbid_pipeline(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran on rejected options")

    monkeypatch.setattr(harness, "read_genotypes", forbidden)
    monkeypatch.setattr(harness.spectral, "_measures", forbidden)


@pytest.mark.parametrize("options, message", BAD_REPORT_OPTIONS)
def test_bad_report_options_fail_before_the_pipeline(cohort_files, monkeypatch, options, message):
    cohort, geno, pheno = cohort_files
    lam, y = np.array([0.5, 1.5, 2.0]), np.array([1.0, -0.5, 0.3])
    with pytest.raises(ConfigurationError, match=r"^" + re.escape(message) + r"$"):
        build_report(lam, y, 3, newton_estimate(lam, y), **options)
    forbid_pipeline(monkeypatch)
    with pytest.raises(ConfigurationError, match=r"^" + re.escape(message) + r"$"):
        estimate_files(geno, pheno, **options)
    with pytest.raises(ConfigurationError, match=r"^" + re.escape(message) + r"$"):
        estimate_from_design(cohort.Z, cohort.Y, **options)


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--q", "0"], "q must be in (0, 1], got 0.0", id="q-0"),
    pytest.param(["--level", "1.5"], "level must be in (0, 1), got 1.5", id="level-1.5"),
])
def test_cli_bad_report_options_fail_before_the_pipeline(cohort_files, monkeypatch, capsys,
                                                        flags, message):
    _, geno, pheno = cohort_files
    forbid_pipeline(monkeypatch)
    assert main(["estimate", geno, pheno, *flags]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, logged", [
    ("basic_format", True),  # a logging attribute, not a level: INFO
    ("bogus", True),
    ("debug", True),
    ("warning", False),
])
def test_cli_herit_log_accepts_only_level_names(tmp_path, name, logged):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10, "N": 20, "eta_star": 0.5, "seed": 1}))
    proc = run_child("-m", "specherit", "simulate", str(config), str(tmp_path / "out"),
                     HERIT_LOG=name)
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    assert ("INFO:specherit:wrote" in proc.stderr) == logged


def test_study_records_per_replicate_failures(tmp_path, monkeypatch):
    import specherit.harness as harness

    real = harness._solve  # every replicate's fit goes through it
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise DataError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_solve", flaky)
    spec = StudySpec(
        base=SimulationConfig(n=40, N=80, eta_star=0.5, seed=5, replicates=3)
    )
    replicates_path, summary_path = run_study(spec, str(tmp_path / "out"))
    with open(replicates_path) as fh:
        rows = list(csv.DictReader(fh))
    errors = [row for row in rows if row["error"]]
    assert len(rows) == 3 and len(errors) == 1
    assert errors[0]["error"] == "DataError: injected failure"
    assert errors[0]["eta_hat"] == ""
    with open(summary_path) as fh:
        summary = list(csv.DictReader(fh))[0]
    assert summary["errors"] == "1"


def test_a_group_whose_every_response_fails_is_not_decomposed(monkeypatch):
    from specherit import spectral

    def measures(*args):
        raise AssertionError("a group with no response was decomposed")

    monkeypatch.setattr(spectral, "_measures", measures)
    cells = tuple(SimulationConfig(n=40, N=80, eta_star=eta) for eta in (0.5, 0.3))
    records = harness._group_records(cells, 0, "genotype", ci_level=1.5)
    message = "ConfigurationError: level must be in (0, 1), got 1.5"
    assert [r.error for r in records] == [message, message]
    assert [r.eta_hat for r in records] == [None, None]


def _reference_record(cell, rep, design, ci_level):
    """A study record from the cell's own cohort and ``estimate_from_design``."""
    cohort = simulate_cohort(cell, replicate=rep, design=design)
    report = estimate_from_design(cohort.Z, cohort.Y, q_assumed=cell.q, ci_level=ci_level)
    eta = cell.eta_star
    return harness.ReplicateRecord(
        replicate_id=rep, seed=cell.seed, eta_star=eta, a=cell.n / cell.N, q=cell.q,
        n=cell.n, N=cell.N, eta_hat=report.eta_hat, sigma2_hat=report.sigma2_hat,
        se_q1=report.se_q1, se_sparse=report.se_sparse,
        pivot_q1=(report.eta_hat - eta) / report.se_q1,
        pivot_sparse=(report.eta_hat - eta) / report.se_sparse,
        ci_lo=report.ci_lo, ci_hi=report.ci_hi, covered=report.ci_lo <= eta <= report.ci_hi,
        iterations=report.solver["newton_steps"], clamped=bool(report.solver["clamped"]),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_study_records_are_run_replicate_in_task_order(monkeypatch, workers):
    # Cells that differ only in eta* or q share each replicate's design, drawn
    # and decomposed once; every record still equals the cell's own cohort and
    # estimate, on the n side (a = 0.5, N > n) and the Gram side (a = 1.6, N < n).
    for design in ("genotype", "gaussian"):
        spec = StudySpec(
            base=SimulationConfig(n=40, N=80, eta_star=0.5, seed=5, replicates=3),
            eta_grid=(0.3, 0.5), a_grid=(0.5, 1.6), q_grid=(0.5, 1.0), design=design,
            workers=workers, ci_level=0.9,
        )
        expected = [
            _reference_record(c, r, design, spec.ci_level)
            for c in spec.cells() for r in range(c.replicates)
        ]
        assert [c.N for c in spec.cells()] == [80, 80, 25, 25] * 2
        records = study_records(spec)
        assert [repr(astuple(r)) for r in records] == [repr(astuple(r)) for r in expected]
        assert not any(r.error for r in records)
        assert records == [harness.run_replicate(c, r, design=design, ci_level=spec.ci_level)
                           for c in spec.cells() for r in range(c.replicates)]

    # A failed design marks every cell of its group; a failed response, only its
    # cell. The design of replicate 1 fails, and so does each response of eta* = 0.6.
    real_design, real_response = harness.draw_design, harness.draw_response
    replicate_1 = harness.replicate_rng(5, 1).bit_generator.state

    def failing_design(config, rng, design):
        if rng.bit_generator.state == replicate_1:
            raise DataError("injected design failure")
        return real_design(config, rng, design)

    def failing_response(config, Z, rng):
        if config.eta_star == 0.6:
            raise DataError("injected response failure")
        return real_response(config, Z, rng)

    monkeypatch.setattr(harness, "draw_design", failing_design)
    monkeypatch.setattr(harness, "draw_response", failing_response)
    spec = StudySpec(
        base=SimulationConfig(n=40, N=80, eta_star=0.5, seed=5, replicates=3),
        eta_grid=(0.3, 0.6), design="gaussian", workers=workers, ci_level=0.9,
    )
    errors = [
        "", "DataError: injected design failure", "",
        "DataError: injected response failure",
        "DataError: injected design failure",
        "DataError: injected response failure",
    ]
    expected = [
        _reference_record(c, r, spec.design, spec.ci_level) if not error else
        harness.ReplicateRecord(r, c.seed, c.eta_star, c.n / c.N, c.q, c.n, c.N, error=error)
        for (c, r), error in zip(((c, r) for c in spec.cells() for r in range(3)), errors)
    ]
    records = study_records(spec)
    assert [repr(astuple(r)) for r in records] == [repr(astuple(r)) for r in expected]
    assert [r.error for r in records] == errors


@pytest.mark.parametrize("workers", [1, 2])
def test_study_task_error_propagates_and_cancels_the_rest(monkeypatch, workers):
    """An error that is not the package's leaves ``study_records``; of the 20
    tasks, only those already running when it is raised still draw."""
    real_design, calls = harness.draw_design, itertools.count()

    def failing_design(config, rng, design):
        if next(calls) == 0:
            raise RuntimeError("injected task failure")
        return real_design(config, rng, design)

    monkeypatch.setattr(harness, "draw_design", failing_design)
    spec = StudySpec(base=SimulationConfig(n=100, N=200, eta_star=0.5, seed=5, replicates=20),
                     design="gaussian", workers=workers)
    with pytest.raises(RuntimeError, match="injected task failure"):
        study_records(spec)
    assert 1 <= next(calls) <= 1 + workers


def _watch_release(monkeypatch, module=None):
    """Weak references that must all be dead when ``spectral.eigenvalues`` or
    ``spectral.eigendecompose`` runs, and the list of those stages in the
    order they ran. With ``module``, its ``standardize`` is wrapped to watch
    the genotypes it reads and the Z it returns."""
    from specherit import spectral

    watched, ran = [], []
    real_standardize = spectral.standardize

    def standardize(W, policy="error"):
        design = real_standardize(W, policy)
        watched.extend((weakref.ref(W), weakref.ref(design.Z)))
        return design

    def watching(name, real):
        def stage(R):
            assert watched, "no design was watched"
            assert all(ref() is None for ref in watched), f"the design is alive at {name}"
            ran.append(name)
            return real(R)

        return stage

    if module is not None:
        monkeypatch.setattr(module, "standardize", standardize)
    for name in ("eigenvalues", "eigendecompose"):
        monkeypatch.setattr(spectral, name, watching(name, getattr(spectral, name)))
    return watched, ran


# On the n side (N >= n) the eigenvalue solve needs only the kinship: on each
# route below the genotypes and the n x N design are gone by the time
# eigvalsh runs, and by the time eigh runs where the route falls back to it.
# At these small n every estimate goes to eigh without eigvalsh, and mp_check
# runs eigvalsh alone; the quadrature route's own test follows them.


def test_study_path_releases_the_design_before_eigh(monkeypatch):
    from specherit import spectral

    watched, ran = _watch_release(monkeypatch, spectral)
    spec = StudySpec(
        base=SimulationConfig(n=40, N=120, eta_star=0.5, seed=5, replicates=2),
        eta_grid=(0.3, 0.5),
    )
    assert [r.error for r in study_records(spec)] == [""] * 4
    assert len(watched) == 2 * 2  # one design per replicate, shared by both cells
    assert ran == ["eigendecompose"] * 2


def test_estimate_files_releases_the_design_before_eigh(cohort_files, monkeypatch):
    _, geno, pheno = cohort_files
    Y = read_phenotype(pheno)
    expected = estimate_from_design(standardize(read_genotypes(geno)).Z, Y - Y.mean()).to_dict()
    watched, ran = _watch_release(monkeypatch, harness)
    doc = estimate_files(geno, pheno)
    assert len(watched) == 2  # the int8 genotypes and Z
    assert ran == ["eigendecompose"]
    # the report is the one the plain route gives, byte for byte
    del doc["inputs"]
    assert harness._json_text(doc) == harness._json_text(expected)


def test_mp_check_releases_the_design_before_eigh(monkeypatch):
    from specherit import spectral

    expected = mp_check(40, 80, "genotype", seed=4)
    watched, ran = _watch_release(monkeypatch, spectral)
    assert mp_check(40, 80, "genotype", seed=4) == expected
    assert len(watched) == 2  # the genotypes and Z
    assert ran == ["eigenvalues"]


def test_estimate_from_design_releases_the_callers_only_reference(monkeypatch):
    cohort = simulate_cohort(SimulationConfig(n=40, N=80, eta_star=0.5, seed=6))
    expected = estimate_from_design(cohort.Z, cohort.Y)
    held = [cohort.Z.copy()]
    watched, ran = _watch_release(monkeypatch)
    watched.append(weakref.ref(held[0]))
    report = estimate_from_design(held.pop(), cohort.Y)  # not in an assert, whose rewrite keeps it
    assert report.to_dict() == expected.to_dict()
    assert ran == ["eigendecompose"]


def test_quadrature_route_releases_the_design_and_forms_no_eigenvectors(monkeypatch):
    cohort = simulate_cohort(SimulationConfig(n=400, N=4000, eta_star=0.5, seed=6))
    expected = estimate_from_design(cohort.Z, cohort.Y)
    held = [cohort.Z.copy()]
    watched, ran = _watch_release(monkeypatch)
    watched.append(weakref.ref(held[0]))
    report = estimate_from_design(held.pop(), cohort.Y)
    assert report.to_dict() == expected.to_dict()
    assert ran == ["eigenvalues"]  # Lanczos took the place of eigh


# ---------------------------------------------------------------------------
# the quadrature route: eigenvalues plus a Lanczos rule on the n side
# ---------------------------------------------------------------------------


def _eigh_report(Z, Y, q_assumed=None):
    """The report of the route that forms eigenvectors: ``decompose``, then
    the public solve and report on its rotated observations."""
    spec = decompose(Z, Y)
    result = newton_estimate(spec.lambdas, spec.y_rot)
    return build_report(spec.lambdas, spec.y_rot, Z.shape[1], result, q_assumed=q_assumed)


def _routes(caplog):
    """The DEBUG lines that name each decomposition's route."""
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("spectrum of")]


@pytest.mark.parametrize("design", ["genotype", "gaussian"])
@pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
def test_quadrature_route_matches_the_eigh_route(caplog, design, a):
    """At n = 400 the a = 0.1 and 0.5 cohorts take eigvalsh plus Lanczos, and
    agree with the eigh route within 1e-10 for the phenotype as drawn,
    centered, and projected off [1, X]; at a = 1 the route is eigh itself,
    and the report is the eigh route's bit for bit."""
    caplog.set_level("DEBUG", logger="specherit")
    n = 400
    cohort = simulate_cohort(SimulationConfig(n=n, N=round(n / a), eta_star=0.5, seed=17),
                             design=design)
    X = np.column_stack([np.ones(n), np.random.default_rng(17).standard_normal((n, 2))])
    phenotypes = {
        "uncentered": cohort.Y,
        "centered": cohort.Y - cohort.Y.mean(),
        "covariates": residualize(cohort.Y, X),
    }
    for label, Y in phenotypes.items():
        caplog.clear()
        got = estimate_from_design(cohort.Z, Y, q_assumed=0.5)
        (route,) = _routes(caplog)
        want = _eigh_report(cohort.Z, Y, q_assumed=0.5)
        if a < 1.0:
            assert "; Lanczos " in route and "eigh" not in route, (label, route)
            for name in ("eta_hat", "sigma2_hat", "se_q1", "se_sparse"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-10, (label, name)
        else:
            assert route.endswith("; eigh"), (label, route)
            assert harness._json_text(got.to_dict()) == harness._json_text(want.to_dict())


def test_fallback_cohort_gives_the_eigh_report_bit_for_bit(tmp_path, caplog):
    """At N = n the spectrum is too ill-conditioned for the rule to pay, and
    ``estimate_files`` gives the eigh route's report, byte for byte."""
    caplog.set_level("DEBUG", logger="specherit")
    cohort = simulate_cohort(SimulationConfig(n=200, N=200, eta_star=0.5, seed=8))
    geno, pheno = tmp_path / "geno.csv", tmp_path / "pheno.txt"
    write_genotypes(geno, cohort.genotypes.entries)
    write_phenotype(pheno, cohort.Y)
    doc = estimate_files(str(geno), str(pheno), q_assumed=0.5)
    (route,) = _routes(caplog)
    assert route.endswith("; eigh")
    del doc["inputs"]
    Y = read_phenotype(str(pheno))
    want = _eigh_report(standardize(read_genotypes(str(geno))).Z, Y - Y.mean(), q_assumed=0.5)
    assert harness._json_text(doc) == harness._json_text(want.to_dict())


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_quadrature_estimate_does_not_move_with_the_phenotype_scale(caplog, scale):
    caplog.set_level("DEBUG", logger="specherit")
    cohort = simulate_cohort(SimulationConfig(n=400, N=4000, eta_star=0.5, seed=19))
    unit = estimate_from_design(cohort.Z, cohort.Y)
    scaled = estimate_from_design(cohort.Z, scale * cohort.Y)
    assert all("; Lanczos " in route for route in _routes(caplog))
    assert abs(scaled.eta_hat - unit.eta_hat) <= 1e-12
    assert scaled.sigma2_hat == pytest.approx(scale**2 * unit.sigma2_hat, rel=1e-12)


def test_quadrature_group_records_equal_one_column_calls(caplog):
    """A design group of four cells takes the quadrature route with four
    columns, and each record is the cell's own one-column estimate, bit for
    bit."""
    caplog.set_level("DEBUG", logger="specherit")
    spec = StudySpec(
        base=SimulationConfig(n=400, N=4000, eta_star=0.5, seed=23, replicates=1),
        eta_grid=(0.3, 0.5), q_grid=(0.5, 1.0), design="genotype",
    )
    records = study_records(spec)
    (route, *_) = _routes(caplog)
    assert route.count("; Lanczos ") == 4, route
    expected = [_reference_record(c, 0, spec.design, spec.ci_level) for c in spec.cells()]
    assert [repr(astuple(r)) for r in records] == [repr(astuple(r)) for r in expected]


def test_zero_phenotype_keeps_its_error_on_the_quadrature_route():
    cohort = simulate_cohort(SimulationConfig(n=400, N=4000, eta_star=0.5, seed=29))
    with pytest.raises(DataError, match="^rotated observations are identically zero$"):
        estimate_from_design(cohort.Z, np.zeros(400))
