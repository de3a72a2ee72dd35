"""File formats, estimation pipeline, Monte-Carlo study runner, and CLI.

Formats (all UTF-8 text, chosen for desk-scale transparency):

* genotype: delimited (comma or tab, autodetected), one row per
  individual, one column per marker, entries in {0, 1, 2};
* phenotype: one column, one row per individual, finite values;
* covariates: delimited, one row per individual, finite values;
* all three are read by one parser: an optional single header row, ``#``
  starts a comment, blank lines are skipped, and errors name the file
  line (and column);
* simulation/study configs, truth files and reports: strict JSON, with
  non-finite floats written as ``null``;
* replicate and summary tables: CSV with fixed column order, floats
  written with 17 significant digits.

Exit codes are a stable contract: 0 success, 1 usage or configuration
error, 2 data or numerical error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import mmap
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DataParseError,
    NumericalFailureError,
    ShapeMismatchError,
    SpecheritError,
    UnidentifiableModelError,
    _check_count,
    _check_design,
    _check_level,
    _check_number,
    _check_seed,
)
from .inference import EstimateReport, _check_report_options, build_report
from .likelihood import SolverConfig, newton_estimate
from . import spectral
from .spectral import MPLaw, decompose, esd, mp_cdf, standardize
from .synthcohort import (
    GenotypeMatrix,
    SimulationConfig,
    _from_doc,
    _parse_json,
    draw_design,
    draw_response,
    replicate_rng,
    simulate_cohort,
)

log = logging.getLogger("specherit")

# Desk-scale guard: study cells wider than this need an explicit opt-in.
MAX_MARKERS_DEFAULT = 20_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


# ---------------------------------------------------------------------------
# file readers / writers
# ---------------------------------------------------------------------------


def _is_number(token: str) -> bool:
    """Whether ``float()`` parses the token, digit separators included."""
    try:
        float(token)
    except ValueError:
        return False
    return True


def _sniff(text: str) -> tuple[str, bool]:
    """Delimiter of the first data line, and whether that line is a header.

    The delimiter is a tab if the line holds one, else a comma; the line is
    a header if any of its fields is not a number. A field such as ``1_0``
    counts as a number here, so its row is read, and rejected, as data.
    """
    delim = "\t" if "\t" in text else ","
    return delim, not all(_is_number(t) for t in text.strip().split(delim) if t != "")


@contextmanager
def _file_bytes(path: str, data=None):
    """A file's bytes from one open, or ``data`` when given. A non-empty regular
    file is mapped read-only (freeing a read buffer of a few MB raises malloc's
    mmap threshold, and peak memory with it); a pipe, device or empty file is read."""
    if data is not None:
        yield data
        return
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                yield mapped
        else:
            yield fh.read()


def _data_lines(path: str, data) -> list[tuple[int, str]]:
    """The ``(file line, text)`` of each data line of a file's bytes ``data``.

    The text is the line without its ``#`` comment and line ending; lines
    left blank are dropped, so errors can name the file line of a data
    row. A byte that is not UTF-8 is a parse error of its line.
    """
    rows = []
    lines = io.StringIO(bytes(data).decode("utf-8", "surrogateescape"), newline=None)
    for k, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")  # fails only on an escaped byte
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise DataParseError(f"{path}: line {k}: byte 0x{byte:02x} is not UTF-8") from None
        text = line.split("#", 1)[0].rstrip("\r\n")
        if text.strip():
            rows.append((k, text))
    return rows


def _first_bad_line(rows, delim: str, width: int | None = None) -> str | None:
    """Describe the first row with a column count other than ``width`` (by
    default the first row's) or a field that is not a number."""
    for k, text in rows:
        tokens = text.split(delim)
        width = len(tokens) if width is None else width
        if len(tokens) != width:
            return f"line {k}: {len(tokens)} columns, expected {width}"
        for j, token in enumerate(tokens, start=1):
            # np.loadtxt reads what float() reads, less digit separators and non-ASCII digits
            if not _is_number(token) or "_" in token or not token.strip().isascii():
                return f"line {k}, column {j}: {token.strip()!r} is not a number"
    return None


def _read_matrix(path: str, kind: str, allowed, rule: str, width=None, data=None) -> np.ndarray:
    """Read a delimited matrix, autodetecting delimiter and optional header.

    The file's bytes (``data``, or else read from ``path``) are parsed
    once: ``_data_lines`` lists its data lines, the first
    sets the delimiter and, if it is not numeric, is the header, and
    ``np.loadtxt`` parses the texts of the rest. Every error names the file
    line of its row in that list: a row whose column count differs from the
    first row's (or from ``width``), a field that is not a number, or an
    entry outside ``allowed``, a map from the matrix to a mask of
    acceptable entries, followed by ``rule``.
    """
    with _file_bytes(path, data) as data:
        rows = _data_lines(path, data)
    delim, header = _sniff(rows[0][1] if rows else "")
    rows = rows[1:] if header else rows
    if not rows:
        raise DataParseError(f"{path}: no {kind} values found")
    try:
        M = np.loadtxt([text for _, text in rows], delimiter=delim, ndmin=2)
    except ValueError as exc:
        raise DataParseError(f"{path}: {_first_bad_line(rows, delim, width) or exc}") from exc
    if width is not None and M.shape[1] != width:
        raise DataParseError(f"{path}: {_first_bad_line(rows, delim, width)}")
    bad = ~allowed(M)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataParseError(
            f"{path}: line {rows[i][0]}, column {j + 1}: {kind} entry {float(M[i, j])!r} {rule}"
        )
    return M


def _decode_digits(data) -> np.ndarray | None:
    """Decode rows of single digits 0-2 straight from the file's bytes.

    The layout is what ``write_genotypes`` writes: an optional header line,
    then rows of equal width, one delimiter between digits, each row ending
    in ``\n`` (the last newline may be missing). The first line is sniffed
    as ``_read_matrix`` does. ``data`` is ``bytes`` or a read-only ``mmap``.
    Returns ``None`` for any other layout, which the general parser then
    reads or rejects with its ``file:line`` errors.
    """
    end = data.find(b"\n")
    try:
        first = data[: len(data) if end < 0 else end].decode("utf-8").rstrip("\r")
    except UnicodeDecodeError:
        return None
    if not first or "#" in first:
        return None
    delim, header = _sniff(first)
    start = end + 1 if header else 0
    if (header and end < 0) or start == len(data):
        return None
    if data[-1:] != b"\n":
        data, start = data[start:] + b"\n", 0
    width = data.find(b"\n", start) + 1 - start
    if width % 2 or (len(data) - start) % width:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, width)
    if not ((rows[:, 1:-1:2] == ord(delim)).all() and (rows[:, -1] == ord("\n")).all()):
        return None
    digits = rows[:, 0::2] - np.uint8(ord("0"))  # bytes below '0' wrap past 2
    if not (digits <= 2).all():
        return None
    return digits.view(np.int8)


def read_genotypes(path: str, data=None) -> np.ndarray:
    """Read a genotype matrix with entries in {0, 1, 2} as a C-contiguous int8 array.

    ``data``, when given, is the file's bytes, and the file is not opened.
    Single-digit files decode straight from bytes; every other layout goes
    through ``np.loadtxt`` and its ``file:line`` errors.
    """
    with _file_bytes(path, data) as data:
        W = _decode_digits(data)
        if W is None:
            M = _read_matrix(path, "genotype", lambda M: np.isin(M, (0.0, 1.0, 2.0)),
                             "not in {0, 1, 2}", data=data)
            W = M.astype(np.int8)
    return W


def read_phenotype(path: str, data=None) -> np.ndarray:
    """Read a phenotype vector of finite values, one per data line."""
    return _read_matrix(path, "phenotype", np.isfinite, "is not finite", width=1, data=data).ravel()


def read_covariates(path: str, data=None) -> np.ndarray:
    """Read a covariate matrix of finite values, one row per individual."""
    return _read_matrix(path, "covariate", np.isfinite, "is not finite", data=data)


def write_genotypes(path: str, W: np.ndarray) -> None:
    """Write allele counts as comma-separated single digits, one row per line."""
    W = GenotypeMatrix(W).entries  # 2-D, n >= 2, N >= 1, entries in {0, 1, 2}
    # One byte per digit, comma or newline: the rows are built in one array.
    text = np.full((W.shape[0], 2 * W.shape[1]), ord(","), dtype=np.uint8)
    text[:, 0::2] = W.astype(np.uint8) + ord("0")
    text[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(text.tobytes())


def write_phenotype(path: str, Y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(Y, dtype=np.float64):
            fh.write(f"{v:.17g}\n")


def _json_text(doc: dict) -> str:
    """Strict JSON: non-finite floats (say an overflowing sigma2_hat) become null."""

    def finite(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: finite(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [finite(v) for v in obj]
        return obj

    return json.dumps(finite(doc), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc) + "\n")


def _read_fingerprinted(reader, path: str) -> tuple[np.ndarray, dict]:
    """What ``reader`` parses from the file, and its path, shape and the sha256
    of the bytes parsed, with the file opened once (so a pipe works too)."""
    with _file_bytes(path) as data:
        M = reader(path, data)
        digest = hashlib.sha256(data).hexdigest()
    return M, dict(zip(("rows", "cols"), M.shape), path=os.path.abspath(path), sha256=digest)


# ---------------------------------------------------------------------------
# estimation pipeline
# ---------------------------------------------------------------------------


def estimate_from_design(
    Z,
    Y: np.ndarray,
    *,
    q_assumed: float | None = None,
    ci_level: float = 0.95,
    solver: SolverConfig | None = None,
) -> EstimateReport:
    """Run the spectral pipeline and inference on an in-memory design.

    Z is an n x N array or a ``StandardizedDesign``. This frame passes its
    only reference to Z on to ``decompose``, so a caller that passes its
    only reference too, as ``estimate_files`` does, has Z freed after
    ``kinship`` when N >= n or N = 1: peak memory is the larger of Z + R and
    R + ``eigh``'s workspace, not their sum.
    """
    _check_report_options(q_assumed, ci_level)
    held = [np.asarray(getattr(Z, "Z", Z), dtype=np.float64)]
    del Z
    n, N = spectral._design_shape(held[0])
    Y = spectral._phenotype(Y, n)  # one phenotype, before kinship
    spec = decompose(held.pop(), Y)
    return _solve(spec.lambdas, spec.y_rot, N, q_assumed, ci_level, solver)


def _solve(lam, y_rot, N: int, q_assumed, ci_level: float, solver=None) -> EstimateReport:
    """The fit and report of one spectrum ``(lam, y_rot)`` of an n x N design."""
    result = newton_estimate(lam, y_rot, solver or SolverConfig())
    return build_report(
        lam, y_rot, n_markers=N, solver_result=result, q_assumed=q_assumed, ci_level=ci_level
    )


def estimate_files(
    geno_path: str,
    pheno_path: str,
    covar_path: str | None = None,
    *,
    q_assumed: float | None = None,
    ci_level: float = 0.95,
    drop_monomorphic: bool = False,
    solver: SolverConfig | None = None,
) -> dict:
    """File-based estimation: returns the report document with fingerprints.

    The phenotype mean is always fitted: Y is projected off [1, X], or off 1
    alone without a covariate file. Covariates that already span 1, such as
    a constant non-zero column or indicators of every level, are used as given.

    The genotypes are dropped once standardized, and ``estimate_from_design``
    gets the only reference to the design, so one design-sized array is
    alive at a time: the genotypes and Z while ``standardize`` runs, Z and R
    at ``kinship``, and on the n x n route (N >= n) R alone at ``eigh``.
    """
    _check_report_options(q_assumed, ci_level)
    inputs = {}
    W, inputs["genotype"] = _read_fingerprinted(read_genotypes, geno_path)
    Y, inputs["phenotype"] = _read_fingerprinted(read_phenotype, pheno_path)
    if W.shape[0] != Y.size:
        raise DataError(
            f"genotype rows ({W.shape[0]}) and phenotype length ({Y.size}) disagree"
        )
    if covar_path is None:
        Y = Y - Y.mean()
    else:
        X, inputs["covariates"] = _read_fingerprinted(read_covariates, covar_path)
        try:
            # X is checked and factored once, for both projections
            Y, ones = map(spectral._residualizer(X, Y.size), (Y, np.ones(Y.size)))
            if np.abs(ones).max() > 1e-8:  # X does not span 1: project off 1's rest too
                if X.shape[1] == Y.size - 1:
                    raise ShapeMismatchError(f"need p < n - 1 covariates besides the "
                                             f"intercept, got p={X.shape[1]}, n={Y.size}")
                Y = Y - (ones @ Y) / (ones @ ones) * ones
        except DataError as exc:  # the shape and rank errors, which take one message
            raise type(exc)(f"{covar_path}: {exc}") from exc
    try:
        held = [standardize(W, policy="drop" if drop_monomorphic else "error")]
    except ShapeMismatchError as exc:  # a file of one row
        raise ShapeMismatchError(f"{geno_path}: {exc}") from exc
    del W
    dropped = held[0].dropped
    doc = estimate_from_design(
        held.pop(), Y, q_assumed=q_assumed, ci_level=ci_level, solver=solver
    ).to_dict()
    if dropped:
        doc["dropped_monomorphic_columns"] = list(dropped)
    doc["inputs"] = inputs
    return doc


# ---------------------------------------------------------------------------
# Monte-Carlo studies
# ---------------------------------------------------------------------------


SUMMARY_COLUMNS = (
    "eta_star", "a", "q", "n", "N", "replicates", "errors",
    "mean_eta_hat", "sd_eta_hat", "mean_se_q1", "mean_se_sparse", "coverage",
    "pivot_q1_mean", "pivot_q1_var", "pivot_sparse_mean", "pivot_sparse_var",
)


@dataclass
class ReplicateRecord:
    """One estimated replicate of a study cell."""

    replicate_id: int
    seed: int
    eta_star: float
    a: float
    q: float
    n: int
    N: int
    eta_hat: float | None = None
    sigma2_hat: float | None = None
    se_q1: float | None = None
    se_sparse: float | None = None
    pivot_q1: float | None = None
    pivot_sparse: float | None = None
    ci_lo: float | None = None
    ci_hi: float | None = None
    covered: bool | None = None
    iterations: int | None = None
    clamped: bool | None = None
    error: str = ""

    def to_row(self) -> dict:
        row = {}
        for name in REPLICATE_COLUMNS:
            value = getattr(self, name)
            if value is None:
                row[name] = ""
            elif isinstance(value, bool):
                row[name] = int(value)
            elif isinstance(value, float):
                row[name] = f"{value:.17g}"
            else:
                row[name] = value
        return row


REPLICATE_COLUMNS = tuple(f.name for f in fields(ReplicateRecord))


@dataclass(frozen=True)
class StudySpec:
    """Grid of simulation cells around a base configuration.

    Each grid point is one ``SimulationConfig`` cell; ``a_grid`` values map
    to marker counts N = round(n / a), and an empty grid keeps the base
    value; no two cells may share (eta_star, N, q). The sparse standard
    error in every record assumes the cell's own q (labelled "assumed q"
    because real data never reveals it).
    """

    base: SimulationConfig
    eta_grid: tuple[float, ...] = ()
    a_grid: tuple[float, ...] = ()
    q_grid: tuple[float, ...] = ()
    design: str = "genotype"
    workers: int = 1
    ci_level: float = 0.95

    def __post_init__(self):
        _check_design(self.design)
        if _check_number("workers", self.workers, integer=True) < 1:
            raise ConfigurationError("workers must be >= 1")
        for a in self.a_grid:
            if not _check_number("a grid value", a) > 0.0:
                raise ConfigurationError(f"a grid value {a} must be positive")
        _check_level(self.ci_level)
        seen = set()
        for cell in self.cells():  # each cell's SimulationConfig checks eta_star, q and N
            if cell in seen:  # the summary would merge the two, counting each draw twice
                raise ConfigurationError(
                    f"study grid repeats the cell eta_star={cell.eta_star}, N={cell.N}, q={cell.q}"
                )
            seen.add(cell)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        return _from_doc(
            cls, _parse_json(text, "study spec"), "study spec", ("base",),
            base=SimulationConfig._from_doc, eta_grid=tuple, a_grid=tuple, q_grid=tuple,
        )

    def cells(self) -> list[SimulationConfig]:
        base = self.base
        return [
            replace(base, eta_star=eta, N=round(base.n / a), q=q)
            for eta in self.eta_grid or (base.eta_star,)
            for a in self.a_grid or (base.n / base.N,)
            for q in self.q_grid or (base.q,)
        ]


def run_replicate(
    config: SimulationConfig,
    replicate: int,
    *,
    design: str = "genotype",
    ci_level: float = 0.95,
) -> ReplicateRecord:
    """Simulate replicate ``replicate`` of ``config`` and estimate it.

    The sparse SE assumes the cell's own q; failures land in the record.
    This is the one-cell case of the study path (``_group_records``).
    """
    return _group_records((config,), replicate, design, ci_level)[0]


def _message(exc: SpecheritError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_records(cells, replicate: int, design: str, ci_level: float) -> list[ReplicateRecord]:
    """Replicate ``replicate`` of cells that share one design group: the
    same n, N, seed and allele-frequency range, so the same design.

    The design is drawn once, and ``decompose`` gets the only reference to
    it with the cells' responses as columns, so on the n side it is freed
    before ``eigh``. Each cell's response is drawn from the stream state the
    design draw left, so each record equals the cell's own
    ``simulate_cohort`` plus ``estimate_from_design``. A failure in the
    design or the decomposition marks every cell still standing; one in a
    cell's response or solve marks that cell only.
    """
    records = [
        ReplicateRecord(
            replicate_id=replicate, seed=cell.seed, eta_star=cell.eta_star,
            a=cell.n / cell.N, q=cell.q, n=cell.n, N=cell.N,
        )
        for cell in cells
    ]
    n, N = cells[0].n, cells[0].N
    responses = {}
    try:
        rng = replicate_rng(cells[0].seed, replicate)
        drawn = [draw_design(cells[0], rng, design)[2]]  # the genotypes go with the tuple
        state = rng.bit_generator.state
        for k, cell in enumerate(cells):
            rng.bit_generator.state = state
            try:
                Y = draw_response(cell, drawn[0], rng)[2]
                _check_report_options(cell.q, ci_level)
                responses[k] = spectral._phenotype(Y, n)
            except SpecheritError as exc:
                records[k].error = _message(exc)
        if not responses:
            return records
        # the list gives decompose the only reference, so Z is freed before eigh
        spec = decompose(drawn.pop(), np.column_stack(list(responses.values())))
    except SpecheritError as exc:
        for record in records:
            record.error = record.error or _message(exc)
        return records
    for j, k in enumerate(responses):
        cell, record = cells[k], records[k]
        try:
            report = _solve(spec.lambdas, spec.y_rot[:, j], N, cell.q, ci_level)
        except SpecheritError as exc:
            record.error = _message(exc)
            continue
        eta_star = cell.eta_star
        record.eta_hat = report.eta_hat
        record.sigma2_hat = report.sigma2_hat
        record.se_q1 = report.se_q1
        record.se_sparse = report.se_sparse
        record.pivot_q1 = (report.eta_hat - eta_star) / report.se_q1
        record.pivot_sparse = (report.eta_hat - eta_star) / report.se_sparse
        record.ci_lo = report.ci_lo
        record.ci_hi = report.ci_hi
        record.covered = report.ci_lo <= eta_star <= report.ci_hi
        record.iterations = report.solver["newton_steps"]
        record.clamped = bool(report.solver["clamped"])
    return records


def study_records(spec: StudySpec) -> list[ReplicateRecord]:
    """Run every replicate of every cell of a study and return the records.

    Cells that share (n, N, seed, allele-frequency range) share each
    replicate's design, so the tasks are (design group, replicate) pairs,
    each run by ``_group_records``. Records come in task order of the cells
    (cell by cell, replicate by replicate). Replicate streams depend only on
    (master seed, replicate index), so the records are the same for any
    ``spec.workers`` at a fixed BLAS thread count. This is ``run_study``
    without the files.
    """
    cells = spec.cells()
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault((cell.n, cell.N, cell.seed, cell.freq_lo, cell.freq_hi), []).append(i)
    keys = [(members, rep) for members in groups.values() for rep in range(spec.base.replicates)]
    args = (
        [tuple(cells[i] for i in members) for members, _ in keys], [rep for _, rep in keys],
        repeat(spec.design), repeat(spec.ci_level),
    )
    log.info("running %d replicates across %d cells in %d design groups",
             len(cells) * spec.base.replicates, len(cells), len(groups))
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_group_records, *args, chunksize=4))
    else:
        results = list(map(_group_records, *args))
    records = {
        (i, rep): record
        for (members, rep), group in zip(keys, results)
        for i, record in zip(members, group)
    }
    return [records[i, rep] for i in range(len(cells)) for rep in range(spec.base.replicates)]


def run_study(spec: StudySpec, out_dir: str, *, allow_large: bool = False) -> tuple[str, str]:
    """Run every cell of a study and write replicate and summary CSVs.

    The rows are ``study_records(spec)`` in its order, so the output is
    identical for any ``spec.workers`` at a fixed BLAS thread count.
    """
    for cell in spec.cells():
        if cell.N > MAX_MARKERS_DEFAULT and not allow_large:
            raise ConfigurationError(
                f"cell (eta={cell.eta_star}, n={cell.n}, q={cell.q}) needs N={cell.N} > "
                f"{MAX_MARKERS_DEFAULT} markers; pass --allow-large to run it anyway"
            )
    os.makedirs(out_dir, exist_ok=True)
    records = study_records(spec)

    replicates_path = os.path.join(out_dir, "replicates.csv")
    with open(replicates_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPLICATE_COLUMNS)
        writer.writeheader()
        writer.writerows(record.to_row() for record in records)

    summary_path = os.path.join(out_dir, "summary.csv")
    summary_rows = summarize_replicates(replicates_path)
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary_rows)
    return replicates_path, summary_path


def summarize_replicates(replicates_path: str) -> list[dict]:
    """Recompute per-cell summary statistics from a replicate CSV alone."""
    cells: dict[tuple, list[dict]] = {}
    with open(replicates_path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["eta_star"], row["a"], row["q"], row["n"], row["N"])
            cells.setdefault(key, []).append(row)

    def _column(rows, name):
        return np.array([float(r[name]) for r in rows if r[name] != ""])

    out = []
    for key in sorted(cells):
        rows = cells[key]
        good = [r for r in rows if not r["error"]]
        eta_hat = _column(good, "eta_hat")
        summary = {
            "eta_star": key[0], "a": key[1], "q": key[2], "n": key[3], "N": key[4],
            "replicates": str(len(rows)), "errors": str(len(rows) - len(good)),
        }
        stats = {
            "mean_eta_hat": eta_hat.mean() if eta_hat.size else None,
            "sd_eta_hat": eta_hat.std(ddof=1) if eta_hat.size > 1 else None,
            "mean_se_q1": _column(good, "se_q1").mean() if good else None,
            "mean_se_sparse": _column(good, "se_sparse").mean() if good else None,
            "coverage": _column(good, "covered").mean() if good else None,
            "pivot_q1_mean": _column(good, "pivot_q1").mean() if good else None,
            "pivot_q1_var": _column(good, "pivot_q1").var(ddof=1) if len(good) > 1 else None,
            "pivot_sparse_mean": _column(good, "pivot_sparse").mean() if good else None,
            "pivot_sparse_var": _column(good, "pivot_sparse").var(ddof=1) if len(good) > 1 else None,
        }
        for name, value in stats.items():
            summary[name] = "" if value is None else f"{float(value):.17g}"
        out.append(summary)
    return out


# ---------------------------------------------------------------------------
# Marchenko-Pastur convergence check
# ---------------------------------------------------------------------------


def mp_check(n: int, N: int, dist: str = "gaussian", seed: int = 0) -> dict:
    """Sup-distance between the empirical spectral CDF and the MP law.

    The design is ``simulate_cohort``'s replicate 0 at ``seed``. The distance
    is taken on a 2001-point grid over [-0.1, a_plus + 0.1]; below ``bound``
    = max(0.05, 4/n) passes. The ESD moves in steps of 1/n, so a fixed 0.05
    would be two steps at n = 40; from n = 80 on the bound is 0.05.
    """
    _check_count("n", n, 2)
    _check_count("N", N, 2)
    _check_design(dist, "dist")
    _check_seed(seed)
    Z = simulate_cohort(SimulationConfig(n=n, N=N, eta_star=0.0, seed=seed), design=dist).Z
    spec = decompose(Z, np.zeros(n))
    law = MPLaw(n / N)
    grid = np.linspace(-0.1, law.a_plus + 0.1, 2001)
    distance = float(np.max(np.abs(esd(spec.lambdas, grid) - mp_cdf(law, grid))))
    bound = max(0.05, 4.0 / n)
    return {
        "ks_distance": distance,
        "bound": bound,
        "a": law.a,
        "pass": bool(distance < bound),
        "n": int(n),
        "N": int(N),
        "dist": dist,
        "seed": int(seed),
    }


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(doc: dict, out: str | None) -> None:
    text = _json_text(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specherit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate heritability from data files")
    p_est.add_argument("genotype", help="genotype matrix file")
    p_est.add_argument("phenotype", help="phenotype file, one value per line")
    p_est.add_argument("--covariates", default=None, help="optional covariate file")
    p_est.add_argument("--q", type=float, default=None,
                       help="assumed proportion of non-null effects (enables sparse SE)")
    p_est.add_argument("--level", type=float, default=0.95, help="confidence level")
    p_est.add_argument("--delta", type=float, default=None, help="boundary margin")
    p_est.add_argument("--drop-monomorphic", action="store_true",
                       help="drop zero-variance genotype columns instead of failing")
    p_est.add_argument("--out", default=None, help="also write the report JSON here")

    p_sim = sub.add_parser("simulate", help="write a synthetic cohort to disk")
    p_sim.add_argument("config", help="SimulationConfig JSON file")
    p_sim.add_argument("out_dir", help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_mc = sub.add_parser("mc-study", help="run a Monte-Carlo study grid")
    p_mc.add_argument("study", help="StudySpec JSON file")
    p_mc.add_argument("out_dir", help="output directory")
    p_mc.add_argument("--workers", type=int, default=None, help="parallel workers")
    p_mc.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_mc.add_argument("--allow-large", action="store_true",
                      help=f"permit cells with more than {MAX_MARKERS_DEFAULT} markers")

    p_mp = sub.add_parser("mp-check", help="empirical spectrum vs Marchenko-Pastur law")
    p_mp.add_argument("--n", type=int, required=True, help="individuals")
    p_mp.add_argument("--N", type=int, required=True, help="markers")
    p_mp.add_argument("--dist", choices=("gaussian", "genotype"), default="gaussian")
    p_mp.add_argument("--seed", type=int, default=0)
    p_mp.add_argument("--out", default=None, help="also write the JSON here")
    return parser


def _cmd_estimate(args) -> int:
    doc = estimate_files(
        args.genotype,
        args.phenotype,
        args.covariates,
        q_assumed=args.q,
        ci_level=args.level,
        drop_monomorphic=args.drop_monomorphic,
        solver=None if args.delta is None else SolverConfig(delta=args.delta),
    )
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SimulationConfig.from_json(fh.read())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    cohort = simulate_cohort(config, replicate=0)
    geno_path = os.path.join(args.out_dir, "genotypes.csv")
    pheno_path = os.path.join(args.out_dir, "phenotypes.txt")
    truth_path = os.path.join(args.out_dir, "truth.json")
    write_genotypes(geno_path, cohort.genotypes.entries)
    write_phenotype(pheno_path, cohort.Y)
    _write_json(truth_path, cohort.truth)
    log.info("wrote %s, %s, %s", geno_path, pheno_path, truth_path)
    return EXIT_OK


def _cmd_mc_study(args) -> int:
    with open(args.study, "r", encoding="utf-8") as fh:
        spec = StudySpec.from_json(fh.read())
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, seed=args.seed))
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    replicates_path, summary_path = run_study(spec, args.out_dir, allow_large=args.allow_large)
    print(json.dumps({"replicates": replicates_path, "summary": summary_path}))
    return EXIT_OK


def _cmd_mp_check(args) -> int:
    doc = mp_check(args.n, args.N, args.dist, args.seed)
    _emit(doc, args.out)
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "mc-study": _cmd_mc_study,
    "mp-check": _cmd_mp_check,
}


def main(argv: list[str] | None = None) -> int:
    name = os.environ.get("HERIT_LOG", "").upper()
    if name:
        # getLevelName maps a level name to its number and anything else to
        # a string, so BASIC_FORMAT and other logging attributes fall back.
        level = logging.getLevelName(name)
        logging.basicConfig(level=level if isinstance(level, int) else logging.INFO)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, NumericalFailureError, UnidentifiableModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
