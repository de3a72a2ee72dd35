import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq

from specherit import spectral
from specherit import (
    ConfigurationError,
    DataError,
    MPLaw,
    MonomorphicColumnError,
    RankDeficientCovariatesError,
    ShapeMismatchError,
    SimulationConfig,
    decompose,
    eigendecompose,
    esd,
    estimate_from_design,
    gamma_n2,
    kinship,
    mp_cdf,
    mp_integrate,
    newton_estimate,
    replicate_rng,
    residualize,
    rotate,
    simulate_cohort,
    standardize,
)
from specherit.likelihood import loglik_grid
from specherit.synthcohort import (
    draw_design, draw_response, sample_allele_frequencies, sample_genotypes,
)

from conftest import raised, riemann_mp


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_three_point_column():
    Z = standardize(np.array([[0.0], [1.0], [2.0]])).Z
    root = np.sqrt(1.5)
    assert np.allclose(Z[:, 0], [-root, 0.0, root], atol=1e-14)


def test_standardize_monomorphic_error_lists_columns():
    W = np.array([[1, 0, 1], [1, 1, 1], [1, 2, 1]])
    with pytest.raises(MonomorphicColumnError) as excinfo:
        standardize(W)
    assert excinfo.value.columns == (0, 2)


def test_monomorphic_message_is_bounded():
    with pytest.raises(MonomorphicColumnError) as excinfo:
        standardize(np.ones((3, 2000)))
    assert excinfo.value.columns == tuple(range(2000))
    assert str(excinfo.value) == (
        "monomorphic (zero-variance) columns cannot be standardized: "
        "2000 columns, the first 10 [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"
    )


def test_standardize_drop_policy():
    W = np.array([[1, 0, 1], [1, 1, 1], [1, 2, 1]])
    design = standardize(W, policy="drop")
    assert design.dropped == (0, 2)
    assert design.Z.shape == (3, 1)


def test_standardize_identities_random():
    rng = replicate_rng(21)
    W = sample_genotypes(30, sample_allele_frequencies(70, 0.1, 0.5, rng), rng)
    Z = standardize(W).Z
    n = 30
    assert np.abs(Z.sum(axis=0)).max() <= n * 1e-10
    assert np.abs((Z**2).sum(axis=0) - n).max() <= n * 1e-10


def test_standardize_needs_two_rows():
    with pytest.raises(ShapeMismatchError, match=r"^need n >= 2, got n=1$"):
        standardize(np.array([[0, 1, 2]]))


def two_pass(W):
    """Standardization with whole-array temporaries, the reference for ``standardize``."""
    Wm = np.asarray(W, dtype=np.float64)
    centered = Wm - Wm.mean(axis=0)
    return centered / np.sqrt(np.mean(centered**2, axis=0))


def polymorphic_genotypes(seed, n, N):
    """Sampled allele counts; a column that came out monomorphic gets one entry changed."""
    rng = replicate_rng(seed)
    W = sample_genotypes(n, sample_allele_frequencies(N, 0.1, 0.5, rng), rng).entries
    monomorphic = (W == W[0]).all(axis=0)
    W[0, monomorphic] = (W[0, monomorphic] + 1) % 3
    return W


# (40, 90) fits one row block; (300, 5000) spans 23 blocks of 13 rows and a
# last block of one row; (3, 70000) takes three blocks of one row.
TWO_PASS_CASES = [
    pytest.param(dtype, n, N, id=dtype.__name__ + ("" if n == 40 else f"-{n}x{N}"))
    for n, N in [(40, 90), (300, 5000), (3, 70000)]
    for dtype in (np.int8, np.int64, np.float64)
]


@pytest.mark.parametrize("dtype, n, N", TWO_PASS_CASES)
def test_standardize_matches_two_pass_formula(dtype, n, N):
    # Z is centered and scaled in place in row blocks; the result must equal
    # the formula with whole-array temporaries, bit for bit.
    W = polymorphic_genotypes(22, n, N).astype(dtype)
    before = W.copy()
    expected = two_pass(W)
    assert np.array_equal(standardize(W).Z, expected)
    assert np.array_equal(W, before)


def test_standardize_drop_policy_across_row_blocks():
    # Column 7 is monomorphic; column 11 is constant over the first 23 row
    # blocks and varies only in the last (row 299), so it is kept.
    W = polymorphic_genotypes(26, 300, 5000)
    W[:, 7] = 1
    W[:, 11] = 0
    W[-1, 11] = 2
    design = standardize(W, policy="drop")
    assert design.dropped == (7,)
    assert np.array_equal(design.Z, two_pass(np.delete(W, 7, axis=1)))
    with pytest.raises(MonomorphicColumnError) as excinfo:
        standardize(W)
    assert excinfo.value.columns == (7,)


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("policy", ["error", "drop"])
def test_a_constant_float_column_is_monomorphic(policy, n):
    # 0.1 is no binary fraction: its float mean is not exactly 0.1, so its
    # float scale is about 1e-17, and a rule on the scale would standardize
    # the column to all +1 or all -1.
    W = polymorphic_genotypes(29, n, 6).astype(np.float64)
    W[:, 2] = 0.1
    if policy == "error":
        message = "monomorphic (zero-variance) columns cannot be standardized: [2]"
        assert raised(lambda: standardize(W)) == (MonomorphicColumnError, message)
    else:
        design = standardize(W, policy="drop")
        assert design.dropped == (2,)
        assert np.array_equal(design.Z, two_pass(np.delete(W, 2, axis=1)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_drop_policy_names_a_non_finite_column_by_its_index_in_W(value):
    # Dropping column 2 first must not renumber the non-finite column 5; a
    # column of inf alone is not monomorphic either.
    W = replicate_rng(30).standard_normal((20, 40))
    W[:, 2] = 0.1
    W[3, 5] = value
    W[:, 7] = np.inf
    with pytest.raises(DataError, match="^column 5 has a non-finite mean or scale"):
        standardize(W, policy="drop")


def test_a_scale_that_underflows_is_a_data_error():
    # The deviations of column 4 are near 1e-200: their squares underflow to
    # 0, so its scale is 0 although its entries differ.
    W = replicate_rng(31).standard_normal((20, 8))
    W[:, 4] = 1e-200 * replicate_rng(32).integers(1, 4, 20)
    for policy in ("error", "drop"):
        with pytest.raises(DataError, match="^column 4 has .* or a zero scale"):
            standardize(W, policy=policy)


@pytest.mark.parametrize(
    "bad",
    [{5: np.nan}, {5: np.inf}, {5: -np.inf}, {5: 1e200}, {5: np.nan, 9: np.inf, 30: 1e200}],
)
def test_standardize_rejects_non_finite_columns(bad):
    rng = replicate_rng(23)
    W = rng.standard_normal((20, 40))
    for column, value in bad.items():
        W[3, column] = value
    with pytest.raises(DataError, match="column 5 has a non-finite mean or scale"):
        standardize(W)
    with pytest.raises(DataError, match="column 5 "):
        standardize(W, policy="drop")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_standardize_rejects_non_finite_column_in_the_last_row_block(value):
    W = replicate_rng(27).standard_normal((300, 5000))
    W[-1, 5] = value
    with pytest.raises(DataError, match="column 5 has a non-finite mean or scale"):
        standardize(W)
    with pytest.raises(DataError, match="column 5 "):
        standardize(W, policy="drop")


def test_standardize_peak_memory_is_about_one_design():
    # No n x N temporary beyond Z itself: the row-block buffers are small.
    W = polymorphic_genotypes(28, 300, 5000)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        Z = standardize(W).Z
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.25 * Z.nbytes


def test_drop_policy_builds_no_second_design():
    # The monomorphic columns leave the int8 genotypes, a copy an eighth the
    # size of Z, before Z exists; Z is not compacted after the fact.
    W = polymorphic_genotypes(33, 400, 2000)
    W[:, [0, 500, 1999]] = 1
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        design = standardize(W, policy="drop")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.dropped == (0, 500, 1999)
    assert peak - start < 1.5 * design.Z.nbytes


def test_estimate_from_design_names_non_finite_design():
    rng = replicate_rng(24)
    Z = rng.standard_normal((20, 40))
    Z[3, 5] = np.nan
    with pytest.raises(DataError, match="non-finite") as excinfo:
        estimate_from_design(Z, rng.standard_normal(20))
    assert not isinstance(excinfo.value, ShapeMismatchError)


# ---------------------------------------------------------------------------
# covariate projection
# ---------------------------------------------------------------------------


def test_residualize_intercept_demeans():
    rng = replicate_rng(1)
    Y = rng.standard_normal(40)
    out = residualize(Y, np.ones((40, 1)))
    assert np.allclose(out, Y - Y.mean(), atol=1e-12)


def test_residualize_annihilates_span():
    rng = replicate_rng(2)
    X = rng.standard_normal((30, 3))
    Y = X @ np.array([1.0, -2.0, 0.5])
    assert np.abs(residualize(Y, X)).max() < 1e-10


def test_residualize_orthogonality():
    rng = replicate_rng(3)
    X = rng.standard_normal((50, 3))
    Y = rng.standard_normal(50)
    out = residualize(Y, X)
    assert np.abs(X.T @ out).max() < 1e-8 * np.linalg.norm(Y)


def test_residualize_names_the_non_finite_input():
    X = replicate_rng(4).standard_normal((20, 2))
    Y = np.arange(20.0)
    Y[3] = np.nan
    assert raised(lambda: residualize(Y, X)) == (DataError, "phenotype holds 1 nan/inf value(s)")
    X[:, 1] = np.inf
    assert raised(lambda: residualize(np.arange(20.0), X)) == (
        DataError, "covariates hold 20 nan/inf value(s)"
    )


def test_residualize_rank_deficient():
    X = np.ones((20, 2))
    with pytest.raises(RankDeficientCovariatesError):
        residualize(np.arange(20.0), X)


def test_residualize_too_many_covariates():
    # the covariates are at fault, not a setting: a data error (CLI exit 2)
    with pytest.raises(ShapeMismatchError, match=r"need p < n covariates, got p=3, n=3"):
        residualize(np.arange(3.0), np.eye(3))


# ---------------------------------------------------------------------------
# kinship and eigenstructure
# ---------------------------------------------------------------------------


def test_kinship_trace_and_kernel():
    rng = replicate_rng(4)
    W = sample_genotypes(20, sample_allele_frequencies(100, 0.1, 0.5, rng), rng)
    R = kinship(standardize(W))
    assert abs(np.trace(R) - 20) <= 20 * 1e-8
    assert np.abs(R @ np.ones(20)).max() <= 1e-8


def test_kinship_single_column():
    z = standardize(np.array([[0.0], [1.0], [2.0]])).Z
    R = kinship(z)
    assert np.linalg.matrix_rank(R) == 1


def test_kinship_psd():
    rng = replicate_rng(5)
    W = sample_genotypes(20, sample_allele_frequencies(100, 0.1, 0.5, rng), rng)
    lam, _ = eigendecompose(kinship(standardize(W)))
    assert lam.min() >= -1e-10


def symmetrized_kinship(Z):
    """The kinship as it was formed before it relied on NumPy's symmetric product."""
    Zm = np.asarray(Z, dtype=np.float64)
    R = Zm @ Zm.T
    R /= Zm.shape[1]
    R += R.T
    R *= 0.5
    return R


@pytest.mark.parametrize("n, N", [(7, 13), (100, 300), (257, 129), (400, 1000)])
def test_kinship_is_exactly_symmetric_in_every_layout(n, N):
    rng = replicate_rng(n)
    Z = rng.standard_normal((n, 2 * N))
    layouts = {
        "C": np.ascontiguousarray(Z[:, :N]),
        "F": np.asfortranarray(Z[:, :N]),
        "int8": rng.integers(0, 3, size=(n, N)).astype(np.int8),
        "row-sliced": Z[::2, :N],
        "transposed": np.ascontiguousarray(Z[:, :N].T).T,
        "column-strided": Z[:, ::2],
    }
    for name, A in layouts.items():
        R = kinship(A)
        assert np.array_equal(R, R.T), name
        if name in ("C", "F", "int8"):
            assert np.array_equal(R, symmetrized_kinship(A)), name


def test_eigendecompose_identity_and_diag():
    lam, U = eigendecompose(np.eye(4))
    assert np.allclose(lam, 1.0)
    assert np.allclose(U @ U.T, np.eye(4), atol=1e-12)
    lam, _ = eigendecompose(np.diag([3.0, 1.0, 0.0]))
    assert np.allclose(lam, [3.0, 1.0, 0.0])


def test_eigendecompose_reconstruction():
    rng = replicate_rng(6)
    A = rng.standard_normal((30, 30))
    R = A @ A.T / 30
    lam, U = eigendecompose(R)
    assert np.all(np.diff(lam) <= 1e-12)  # descending
    assert np.abs(U.T @ U - np.eye(30)).max() <= 1e-8
    assert np.abs(U @ np.diag(lam) @ U.T - R).max() <= 1e-8 * np.abs(lam).max()


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ShapeMismatchError):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [5, 300])  # one block and several blocks
def test_eigendecompose_symmetry_tolerance(n):
    R = np.eye(n)
    R[n - 1, 1] = 1e-10
    assert eigendecompose(R)[0].size == n
    R[n - 1, 1] = 3e-10
    with pytest.raises(ShapeMismatchError, match="not symmetric within 1e-10"):
        eigendecompose(R)
    R[n - 1, 1] = 0.0
    R[1, n - 1], R[n - 1, 1] = 1e308, -1e308
    with pytest.raises(ShapeMismatchError):
        eigendecompose(R)


@pytest.mark.parametrize(
    "entries",
    [{(0, 2): np.nan}, {(0, 2): np.nan, (2, 0): np.nan}, {(1, 1): np.inf}, {(3, 0): -np.inf}],
    ids=["nan-off-diagonal", "nan-symmetric-pair", "inf-on-diagonal", "minus-inf-off-diagonal"],
)
def test_eigendecompose_rejects_non_finite(entries):
    R = np.eye(4)
    for index, value in entries.items():
        R[index] = value
    with pytest.raises(DataError, match="non-finite") as excinfo:
        eigendecompose(R)
    assert not isinstance(excinfo.value, ShapeMismatchError)


def test_rotate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        rotate(np.eye(3), np.arange(4.0))


def test_mp_integrate_nonfinite_integrand():
    from specherit import NumericalFailureError

    with np.errstate(divide="ignore"), pytest.raises(NumericalFailureError):
        mp_integrate(MPLaw(0.5), lambda lam: 1.0 / (lam - lam))


def test_rotate_identity_permutation_norm():
    Y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(rotate(np.eye(3), Y), Y)
    P = np.eye(3)[:, [2, 0, 1]]
    assert np.allclose(rotate(P, Y), Y[[2, 0, 1]])
    rng = replicate_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((25, 25)))
    y = rng.standard_normal(25)
    assert abs(np.linalg.norm(rotate(Q, y)) - np.linalg.norm(y)) <= 1e-12 * np.linalg.norm(y)


def test_rotation_preserves_quadratic_functional():
    rng = replicate_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    y = rng.standard_normal(15)
    h = rng.standard_normal(15)
    y_rot = rotate(Q, y)
    lhs = y_rot @ (h * y_rot)
    rhs = y @ (Q @ np.diag(h) @ Q.T @ y)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_decompose_structure():
    rng = replicate_rng(9)
    W = sample_genotypes(25, sample_allele_frequencies(50, 0.1, 0.5, rng), rng)
    Z = standardize(W)
    Y = rng.standard_normal(25)
    spec = decompose(Z, Y)
    assert spec.eigvecs is None
    assert abs(spec.lambdas.sum() - 25) <= 25 * 1e-8   # trace identity
    assert spec.lambdas.min() == 0.0                   # kernel from column centering
    assert abs(np.linalg.norm(spec.y_rot) - np.linalg.norm(Y)) <= 1e-10 * np.linalg.norm(Y)
    with_vecs = decompose(Z, Y, keep_eigvecs=True)
    assert with_vecs.eigvecs.shape == (25, 25)


def test_decompose_rejects_empty_design():
    # ``policy="drop"`` on an all-monomorphic file leaves no columns.
    design = standardize(np.ones((4, 2)), policy="drop")
    with pytest.raises(ShapeMismatchError, match="non-empty"):
        estimate_from_design(design.Z, np.arange(4.0))


@pytest.mark.parametrize("shape, message", [
    ((5,), "design matrix must be 2-D and non-empty, got shape (5,)"),
    ((2, 3, 4), "design matrix must be 2-D and non-empty, got shape (2, 3, 4)"),
    ((3, 0), "design matrix must be 2-D and non-empty, got shape (3, 0)"),
    ((1, 4), "need n >= 2, got n=1"),
], ids=["1-D", "3-D", "no-column", "one-row"])
def test_every_design_entry_applies_one_rule(shape, message):
    Z = np.ones(shape)
    calls = (lambda: standardize(Z), lambda: kinship(Z), lambda: decompose(Z, np.zeros(3)))
    assert {raised(call) for call in calls} == {(ShapeMismatchError, message)}


@pytest.mark.parametrize("N", [40, 10], ids=["kinship-side", "gram-side"])
@pytest.mark.parametrize("fault, error", [
    ("short", (ShapeMismatchError, "phenotype must have shape (20,), got (19,)")),
    ("nan", (DataError, "phenotype holds 1 nan/inf value(s)")),
    ("columns", (ShapeMismatchError, "phenotype must have shape (20,), got (20, 2)")),
], ids=["short", "nan", "columns"])
def test_phenotype_rule_applies_before_kinship(monkeypatch, N, fault, error):
    # decompose takes phenotypes as columns; estimate_from_design takes one
    rng = replicate_rng(28)
    Z, Y = rng.standard_normal((20, N)), rng.standard_normal(20)
    if fault == "short":
        Y = Y[:-1]
    elif fault == "nan":
        Y[4] = np.nan
    else:
        Y = np.column_stack([Y, Y])

    def no_kinship(Z):
        raise AssertionError("kinship ran")

    monkeypatch.setattr(spectral, "kinship", no_kinship)
    assert raised(lambda: estimate_from_design(Z, Y)) == error


def test_decompose_one_marker():
    # Z' has one row, below the design rule, so the n x n kinship is decomposed
    rng = replicate_rng(29)
    z, Y = rng.standard_normal(30), rng.standard_normal(30)
    spec = decompose(z[:, None], Y)
    assert spec.lambdas[0] == pytest.approx(z @ z, rel=1e-12)
    assert np.abs(spec.lambdas[1:]).max() <= 1e-12 * (z @ z)
    assert spec.y_rot[0] ** 2 == pytest.approx((z @ Y) ** 2 / (z @ z), rel=1e-10)
    assert spec.y_rot @ spec.y_rot == pytest.approx(Y @ Y, rel=1e-12)


def _n_side(Z, Y):
    lam, U = eigendecompose(kinship(Z))
    return lam, rotate(U, Y)


@pytest.mark.parametrize("n, N", [(30, 30), (30, 31), (30, 90)])
def test_decompose_n_side_is_the_plain_pipeline(n, N):
    rng = replicate_rng(25)
    Z = standardize(sample_genotypes(n, sample_allele_frequencies(N, 0.2, 0.5, rng), rng)).Z
    Y = rng.standard_normal(n)
    lam, y_rot = _n_side(Z, Y)
    spec = decompose(Z, Y)
    assert np.array_equal(spec.lambdas, lam)
    assert np.array_equal(spec.y_rot, y_rot)


def test_decompose_keeps_full_basis_below_n():
    rng = replicate_rng(26)
    Z = rng.standard_normal((40, 15))
    Y = rng.standard_normal(40)
    spec = decompose(Z, Y, keep_eigvecs=True)
    U = spec.eigvecs
    assert U.shape == (40, 40)
    R = kinship(Z)
    assert np.abs(U @ np.diag(spec.lambdas) @ U.T - R).max() <= 1e-12 * spec.lambdas.max()
    assert np.array_equal(rotate(U, Y), spec.y_rot)


def test_decompose_gram_side_has_exact_structural_zeros():
    # mc-study's a = 2 cell: n - N of the n eigenvalues are structural zeros.
    config = SimulationConfig(n=500, N=250, eta_star=0.5, q=0.5, seed=27)
    cohort = simulate_cohort(config, replicate=0, design="genotype")
    spec = decompose(cohort.Z, cohort.Y)
    assert np.count_nonzero(spec.lambdas == 0.0) == 250
    assert np.all(spec.lambdas[:250] > 0.0)
    assert abs(spec.lambdas.sum() - 500) <= 500 * 1e-10  # trace identity
    assert np.count_nonzero(spec.y_rot[251:]) == 0


@pytest.mark.parametrize("design", ["genotype", "gaussian"])
@pytest.mark.parametrize("N", [400, 100], ids=["n-side", "gram-side"])
def test_rotated_observations_follow_their_exact_law(design, N):
    # With q = 1, Y | Z ~ N(0, sigma*^2 (eta* R + (1 - eta*) I)), so y_i is
    # N(0, sigma*^2 (eta* lambda_i + 1 - eta*)) given Z, independently over i.
    # On the Gram side the null mass squared is sigma*^2 (1 - eta*) chi^2(n - r).
    n, eta, sigma2 = 200, 0.4, 2.5
    config = SimulationConfig(n=n, N=N, eta_star=eta, q=1.0, sigma_star2=sigma2, seed=31)
    scaled, null = [], []
    for replicate in range(5):
        cohort = simulate_cohort(config, replicate=replicate, design=design)
        spec = decompose(cohort.Z, cohort.Y)
        lam, y = spec.lambdas, spec.y_rot
        r = n if N >= n else int(np.count_nonzero(lam > spectral.EIGENVALUE_CLAMP_TOL))
        scaled.append(y[:r] / np.sqrt(sigma2 * (eta * lam[:r] + 1.0 - eta)))
        if r < n:
            null.append(y[r] ** 2 / (sigma2 * (1.0 - eta)))
            assert not y[r + 1 :].any()
    assert stats.kstest(np.concatenate(scaled), "norm").pvalue > 0.01
    assert len(null) == (5 if N < n else 0)
    if null:
        assert stats.kstest(null, "chi2", args=(n - r,)).pvalue > 0.01

    # phenotypes that share a design rotate as the columns of one call, each
    # column bit for bit its own 1-D call
    rng = replicate_rng(config.seed)
    Z = draw_design(config, rng, design)[2]
    Y = np.column_stack([draw_response(config, Z, rng)[2] for _ in range(5)])
    spec = decompose(Z, Y)
    assert spec.y_rot.shape == Y.shape
    for j in range(Y.shape[1]):
        alone = decompose(Z, Y[:, j])
        assert np.array_equal(spec.lambdas, alone.lambdas)
        assert np.array_equal(spec.y_rot[:, j], alone.y_rot)


def _design(seed, n, N, kind, duplicated):
    rng = replicate_rng(seed)
    distinct = N - duplicated
    if kind == "genotype":
        freqs = sample_allele_frequencies(distinct, 0.2, 0.5, rng)
        Z = standardize(sample_genotypes(n, freqs, rng), policy="drop").Z
    else:
        Z = rng.standard_normal((n, distinct))
    return np.hstack([Z, Z[:, :duplicated]]), rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    shape=st.floats(0.05, 0.95),
    kind=st.sampled_from(["gaussian", "genotype"]),
    duplicate=st.booleans(),
    noise=st.sampled_from([1.0, 1e-6]),
)
def test_decompose_gram_side_matches_n_side(seed, n, shape, kind, duplicate, noise):
    # N < n takes the Gram route; every quantity the estimator reads must
    # agree with the n x n eigendecomposition. ``duplicated`` columns make
    # the Gram rank deficient; ``noise=1e-6`` puts Y almost in col(Z).
    N = max(1, int(shape * n))
    duplicated = N // 3 if duplicate else 0
    Z, rng = _design(seed, n, N, kind, duplicated)
    assume(Z.shape[1] > 0)  # every genotype column came out monomorphic
    Y = Z @ rng.standard_normal(Z.shape[1]) + noise * rng.standard_normal(n)
    spec = decompose(Z, Y)
    lam, y_rot = _n_side(Z, Y)

    etas = np.linspace(0.0, 0.99, 34)
    reference = loglik_grid(etas, lam, y_rot)
    gram = loglik_grid(etas, spec.lambdas, spec.y_rot)
    assert np.all(np.abs(gram - reference) <= 1e-10 * np.maximum(np.abs(reference), 1.0))
    eta_hat = newton_estimate(lam, y_rot).eta_hat
    assert abs(newton_estimate(spec.lambdas, spec.y_rot).eta_hat - eta_hat) <= 1e-9
    for eta in (0.0, 0.5, eta_hat):
        assert gamma_n2(eta, spec.lambdas) == pytest.approx(gamma_n2(eta, lam), rel=1e-10)

    c = rng.standard_normal(3)
    RY = kinship(Z) @ Y
    direct = c[0] * (Y @ Y) + c[1] * (Y @ RY) + c[2] * (RY @ RY)
    h = c[0] + c[1] * spec.lambdas + c[2] * spec.lambdas**2
    size = np.abs(c) @ [Y @ Y, abs(Y @ RY), RY @ RY]
    assert abs(np.sum(h * spec.y_rot**2) - direct) <= 1e-10 * size


# ---------------------------------------------------------------------------
# empirical spectral distribution
# ---------------------------------------------------------------------------


def test_esd_step_values():
    lam = np.array([0.0, 1.0, 2.0])
    assert esd(lam, -0.5) == 0.0
    assert esd(lam, 2.0) == 1.0
    assert esd(lam, 5.0) == 1.0
    assert esd(lam, 1.0) == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# Marchenko-Pastur law
# ---------------------------------------------------------------------------


def test_mp_law_support_and_atom():
    law = MPLaw(1.0)
    assert law.a_minus == 0.0 and law.a_plus == 4.0
    assert law.mass_at_zero == 0.0
    law2 = MPLaw(2.0)
    assert law2.mass_at_zero == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        MPLaw(0.0)


def test_mp_cdf_limits():
    law = MPLaw(0.5)
    assert mp_cdf(law, -1.0) == 0.0
    assert abs(mp_cdf(law, law.a_plus + 1.0) - 1.0) <= 1e-8
    # monotone over a grid straddling the support
    grid = np.linspace(-0.2, law.a_plus + 0.2, 200)
    values = mp_cdf(law, grid)
    assert np.all(np.diff(values) >= -1e-12)


def test_mp_cdf_atom_below_support():
    law = MPLaw(2.0)
    assert mp_cdf(law, 0.0) == pytest.approx(0.5)
    assert mp_cdf(law, law.a_minus / 2.0) == pytest.approx(0.5)
    assert mp_cdf(law, -1e-9) == 0.0


def test_mp_cdf_median():
    # Frozen from a root-find of this module's own CDF, cross-checked below
    # against the independent Riemann-sum oracle.
    law = MPLaw(0.25)
    median = brentq(lambda x: mp_cdf(law, x) - 0.5, law.a_minus, law.a_plus, xtol=1e-13)
    assert mp_cdf(law, median) == pytest.approx(0.5, abs=1e-6)
    assert median == pytest.approx(0.9160040706866128, abs=1e-9)
    oracle_median = brentq(
        lambda x: riemann_mp(0.25, lambda lam: (lam <= x).astype(float), points=10**6) - 0.5,
        law.a_minus,
        law.a_plus,
        xtol=1e-10,
    )
    assert abs(median - oracle_median) < 1e-6


@pytest.mark.parametrize("a", [0.1, 1.0, 4.0])
def test_mp_cdf_differentiates_to_the_density(a):
    law = MPLaw(a)
    x = law.a_minus + (law.a_plus - law.a_minus) * np.array([0.05, 0.3, 0.5, 0.7, 0.95])
    h = 1e-6
    slope = (mp_cdf(law, x + h) - mp_cdf(law, x - h)) / (2.0 * h)
    density = np.sqrt((law.a_plus - x) * (x - law.a_minus)) / (2.0 * np.pi * a * x)
    assert np.allclose(slope, density, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_mp_cdf_support_edges_are_exact(a):
    law = MPLaw(a)
    assert abs(mp_cdf(law, law.a_minus) - law.mass_at_zero) <= 1e-15
    assert abs(mp_cdf(law, law.a_plus) - 1.0) <= 1e-15


def test_mp_cdf_at_a_one_against_riemann_oracle():
    # a = 1 puts the lower edge at 0, where the density has a 1/sqrt(lambda) pole
    law = MPLaw(1.0)
    for x in (1e-4, 0.01, 0.5, 1.0, 2.5, 3.99):
        oracle = riemann_mp(1.0, lambda lam: (lam <= x).astype(float), points=10**6)
        assert abs(mp_cdf(law, x) - oracle) <= 1e-5


def test_mp_cdf_rejects_nan():
    from specherit import NumericalFailureError

    with pytest.raises(NumericalFailureError, match="NaN"):
        mp_cdf(MPLaw(0.5), np.array([0.5, np.nan]))


def test_mp_integrate_moments_against_riemann_oracle():
    for a in (0.25, 0.5, 1.0, 2.0):
        law = MPLaw(a)
        mass = mp_integrate(law, lambda lam: np.ones_like(lam))
        mean = mp_integrate(law, lambda lam: lam)
        second = mp_integrate(law, lambda lam: lam**2)
        assert abs(mass - 1.0) <= 1e-9
        assert abs(mean - 1.0) <= 1e-7
        assert abs(second - (1.0 + a)) <= 1e-6
        assert abs(mass - riemann_mp(a, lambda lam: np.ones_like(lam))) <= 1e-9
        assert abs(mean - riemann_mp(a, lambda lam: lam)) <= 1e-7
        assert abs(second - riemann_mp(a, lambda lam: lam**2)) <= 1e-6


def test_mp_integrate_linearity():
    law = MPLaw(0.5)
    f = lambda lam: np.exp(-lam)
    h = lambda lam: lam**3
    combined = mp_integrate(law, lambda lam: 2.0 * f(lam) - 0.3 * h(lam))
    separate = 2.0 * mp_integrate(law, f) - 0.3 * mp_integrate(law, h)
    assert abs(combined - separate) <= 1e-12


def test_mp_integrate_indicator_vs_cdf():
    # Steps at or outside the support edges keep the integrand smooth and
    # must match the CDF to quadrature accuracy; an interior step is only
    # resolvable to O(1/order) by the fixed-order rule.
    for a in (0.5, 2.0):
        law = MPLaw(a)
        for x in (law.a_minus * 0.5, law.a_plus + 0.1):
            via_integral = mp_integrate(law, lambda lam: (lam <= x).astype(float))
            assert abs(via_integral - mp_cdf(law, x)) <= 1e-6
    law = MPLaw(0.5)
    x = 1.1
    via_integral = mp_integrate(law, lambda lam: (lam <= x).astype(float))
    assert abs(via_integral - mp_cdf(law, x)) <= 5e-3


def test_esd_converges_to_mp_gaussian():
    rng = replicate_rng(20250)
    n, N = 1000, 2000
    Z = rng.standard_normal((n, N))
    spec = decompose(Z, np.zeros(n))
    law = MPLaw(n / N)
    grid = np.linspace(-0.1, law.a_plus + 0.1, 2001)
    distance = np.max(np.abs(esd(spec.lambdas, grid) - mp_cdf(law, grid)))
    assert distance < 0.05
