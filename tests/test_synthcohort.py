import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specherit import (
    ConfigurationError,
    GenotypeMatrix,
    ShapeMismatchError,
    SimulationConfig,
    effect_scale,
    kinship,
    replicate_rng,
    sample_allele_frequencies,
    sample_effects,
    sample_genotypes,
    simulate_cohort,
    simulate_phenotype,
    standardize,
)


def test_frequencies_degenerate_interval():
    rng = replicate_rng(0)
    freqs = sample_allele_frequencies(25, 0.3, 0.3, rng)
    assert np.all(freqs == 0.3)


def test_frequencies_empty():
    assert sample_allele_frequencies(0, 0.1, 0.5, replicate_rng(0)).size == 0


def test_frequencies_invalid_range():
    rng = replicate_rng(0)
    with pytest.raises(ConfigurationError):
        sample_allele_frequencies(10, 0.5, 0.1, rng)
    with pytest.raises(ConfigurationError):
        sample_allele_frequencies(10, 0.0, 0.5, rng)
    with pytest.raises(ConfigurationError):
        sample_allele_frequencies(10, 0.1, 1.0, rng)


def test_frequencies_law_of_large_numbers():
    # 0.003 is ~8 standard deviations of the mean of 1e5 U[0.1, 0.5] draws
    freqs = sample_allele_frequencies(10**5, 0.1, 0.5, replicate_rng(11))
    assert abs(freqs.mean() - 0.3) < 0.003


def test_genotypes_entries_and_distribution():
    rng = replicate_rng(5)
    W = sample_genotypes(200, sample_allele_frequencies(40, 0.1, 0.5, rng), rng)
    assert W.entries.shape == (200, 40)
    assert np.isin(W.entries, (0, 1, 2)).all()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_genotype_matrix_checks_every_entry(dtype):
    valid = np.array([[0, 1, 2], [2, 1, 0]], dtype=dtype)
    assert np.array_equal(GenotypeMatrix(valid).entries, valid)
    bad_values = [-1, 3, 127] + {
        np.int8: [-128],
        np.int64: [257, -254, 2**32 + 1, -(2**63)],
        np.float64: [0.5, 2.0000000000000004, np.nan, np.inf],
    }[dtype]
    for value in bad_values:
        entries = valid.copy()
        entries[1, 2] = value
        with pytest.raises(ConfigurationError, match="must all be in"):
            GenotypeMatrix(entries)
        with pytest.raises(ConfigurationError, match="must all be in"):
            GenotypeMatrix(entries[:, ::-1])  # a strided view is checked too


def test_genotypes_rare_allele_limit():
    W = sample_genotypes(500, np.full(20, 1e-12), replicate_rng(1))
    assert np.all(W.entries == 0)


def test_genotypes_binomial_mean():
    # column mean of Binomial(2, 0.5) draws: 4 sigma is ~0.009 at n = 1e5
    W = sample_genotypes(10**5, np.array([0.5]), replicate_rng(2))
    assert abs(W.entries[:, 0].mean() - 1.0) < 0.01


def test_genotypes_frequency_out_of_range():
    with pytest.raises(ConfigurationError):
        sample_genotypes(10, np.array([0.0, 0.5]), replicate_rng(0))


def test_genotypes_deterministic():
    freqs = np.array([0.2, 0.4, 0.1])
    a = sample_genotypes(50, freqs, replicate_rng(33, 4))
    b = sample_genotypes(50, freqs, replicate_rng(33, 4))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("N", [1, 7, 5000, 70000])
def test_genotypes_follow_the_whole_array_draw_order(N):
    # Uniforms are drawn in row blocks (one row per block at N = 70000); the
    # entries and the generator's next draw must match two whole-array draws.
    n = 300
    freqs = sample_allele_frequencies(N, 0.1, 0.5, replicate_rng(34))
    rng, reference = replicate_rng(35, N), replicate_rng(35, N)
    W = sample_genotypes(n, freqs, rng)
    expected = (reference.random((n, N)) < freqs).astype(np.int8)
    expected += reference.random((n, N)) < freqs
    assert W.entries.dtype == np.int8
    assert np.array_equal(W.entries, expected)
    assert rng.random() == reference.random()


def test_genotype_sampler_peak_memory():
    # The uniforms live in one reused block, never in an n x N float array.
    freqs = sample_allele_frequencies(5000, 0.1, 0.5, replicate_rng(36))
    tracemalloc.start()
    try:
        W = sample_genotypes(300, freqs, replicate_rng(37))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * W.entries.nbytes


def test_effect_scale_examples():
    assert effect_scale(0.5, 1.0, 1.0, 100) == (0.005, 0.5)
    sigma_u2, sigma_e2 = effect_scale(0.0, 2.0, 0.3, 50)
    assert sigma_u2 == 0.0 and sigma_e2 == 2.0


@settings(max_examples=100, deadline=None)
@given(
    eta=st.floats(0.0, 0.99, exclude_max=False),
    sigma2=st.floats(1e-3, 1e3),
    q=st.floats(0.01, 1.0),
    N=st.integers(1, 10**6),
)
def test_effect_scale_round_trip(eta, sigma2, q, N):
    sigma_u2, sigma_e2 = effect_scale(eta, sigma2, q, N)
    total = N * q * sigma_u2 + sigma_e2
    assert abs(total - sigma2) <= 1e-12 * sigma2
    assert abs(N * q * sigma_u2 / total - eta) <= 1e-12


def test_effects_dense_case():
    effects = sample_effects(100, 1.0, 0.5, replicate_rng(3))
    assert effects.support.all()


def test_effects_zero_variance():
    effects = sample_effects(100, 0.5, 0.0, replicate_rng(3))
    assert np.all(effects.u == 0.0)


def test_effects_support_fraction():
    effects = sample_effects(10**5, 0.5, 1.0, replicate_rng(4))
    assert abs(effects.support.mean() - 0.5) < 0.007
    assert np.all(effects.u[~effects.support] == 0.0)


def test_phenotype_degenerate_cases():
    rng = replicate_rng(0)
    Z = np.ones((5, 3))
    assert np.all(simulate_phenotype(Z, np.zeros(3), 0.0, rng) == 0.0)
    u = np.array([1.0, -1.0, 2.0])
    assert np.allclose(simulate_phenotype(Z, u, 0.0, rng), Z @ u)


def test_phenotype_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        simulate_phenotype(np.ones((5, 3)), np.zeros(4), 1.0, replicate_rng(0))


def test_phenotype_conditional_covariance():
    # Monte-Carlo check of Var(Y|Z) = eta sigma2 R + (1 - eta) sigma2 I on
    # the diagonal, with the design held fixed across 5000 replicates.
    eta_star, sigma2 = 0.5, 1.0
    n, N, reps = 20, 40, 5000
    config = SimulationConfig(n=n, N=N, eta_star=eta_star, seed=99)
    Z = simulate_cohort(config).Z
    R = kinship(Z)
    expected_diag = eta_star * sigma2 * np.diag(R) + (1.0 - eta_star) * sigma2

    rng = replicate_rng(100)
    sigma_u2, sigma_e2 = effect_scale(eta_star, sigma2, 1.0, N)
    U = rng.normal(0.0, np.sqrt(sigma_u2), (reps, N))
    E = rng.normal(0.0, np.sqrt(sigma_e2), (reps, n))
    Y = U @ Z.T + E
    observed_diag = Y.var(axis=0)
    assert np.all(np.abs(observed_diag - expected_diag) < 0.1 * expected_diag)


def test_cohort_determinism_and_stream_independence():
    config = SimulationConfig(n=30, N=60, eta_star=0.4, q=0.5, seed=123, replicates=10)
    first = simulate_cohort(config, replicate=5)
    second = simulate_cohort(config, replicate=5)
    assert np.array_equal(first.genotypes.entries, second.genotypes.entries)
    assert np.array_equal(first.effects.u, second.effects.u)
    assert np.array_equal(first.Y, second.Y)
    # a different replicate index gives an unrelated stream
    other = simulate_cohort(config, replicate=6)
    assert not np.array_equal(other.Y, first.Y)


def test_truth_matches_effect_scale():
    config = SimulationConfig(n=20, N=50, eta_star=0.3, q=0.5, sigma_star2=2.0, seed=8)
    cohort = simulate_cohort(config)
    sigma_u2, sigma_e2 = effect_scale(0.3, 2.0, 0.5, 50)
    assert cohort.truth["sigma_u2"] == sigma_u2
    assert cohort.truth["sigma_e2"] == sigma_e2
    assert cohort.truth["support_indices"] == np.flatnonzero(cohort.effects.support).tolist()


def test_gaussian_design_cohort():
    config = SimulationConfig(n=25, N=50, eta_star=0.5, seed=3)
    cohort = simulate_cohort(config, design="gaussian")
    assert cohort.genotypes is None
    assert cohort.Z.shape == (25, 50)
    # gaussian designs are not column-standardized
    assert abs(cohort.Z.sum(axis=0)).max() > 1e-6


def test_config_json_round_trip_and_validation():
    config = SimulationConfig(n=10, N=20, eta_star=0.2, q=0.7, seed=42, replicates=3)
    again = SimulationConfig.from_json(config.to_json())
    assert again == config
    doc = json.loads(config.to_json())
    assert set(doc) == {
        "n", "N", "eta_star", "q", "sigma_star2", "freq_lo", "freq_hi",
        "seed", "replicates",
    }
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, N=20, eta_star=1.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, N=20, eta_star=0.5, q=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, N=20, eta_star=0.5, sigma_star2=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig.from_json('{"n": 5, "N": 10, "eta_star": 0.1, "bogus": 1}')


def test_q1_matches_classical_gaussian_effects():
    # with q = 1 the support is all-true and u is plain N(0, sigma_u2)
    effects = sample_effects(5000, 1.0, 0.25, replicate_rng(17))
    assert effects.support.all()
    assert abs(effects.u.std() - 0.5) < 0.02


def test_standardize_of_sampled_genotypes():
    rng = replicate_rng(9)
    W = sample_genotypes(40, sample_allele_frequencies(80, 0.1, 0.5, rng), rng)
    Z = standardize(W).Z
    assert np.abs(Z.sum(axis=0)).max() <= 40 * 1e-10
    assert np.abs((Z**2).sum(axis=0) - 40).max() <= 40 * 1e-10
