"""The parameter rules of ``specherit.errors``: every entry that takes a
parameter rejects a bad value with one ``ConfigurationError`` and one
message, a bool, a string or None where a number belongs included."""

import math

import numpy as np
import pytest

from specherit import (
    ConfigurationError,
    EffectVector,
    GenotypeMatrix,
    ShapeMismatchError,
    SimulationConfig,
    StudySpec,
    build_report,
    eigendecompose,
    estimate_files,
    estimate_from_design,
    grid_oracle,
    mp_check,
    newton_estimate,
    replicate_rng,
    residualize,
    sample_allele_frequencies,
    sample_genotypes,
    simulate_cohort,
    standardize,
    tau2,
)
from specherit.inference import confidence_interval, normal_quantile

from conftest import raised

LAM, Y = np.array([0.5, 1.5, 2.0]), np.array([1.0, -0.5, 0.3])
RESULT = newton_estimate(LAM, Y)
BASE = SimulationConfig(n=40, N=80, eta_star=0.5)
ABOVE_ONE = math.nextafter(1.0, 2.0)
BELOW_ZERO = math.nextafter(0.0, -1.0)


def not_numbers(noun="a number"):
    """The three values that no number rule admits, with the message each gets."""
    return [
        pytest.param(value, f"{{name}} must be {noun}, got {value!r}", id=repr(value))
        for value in (True, "0.5", None)
    ]


def check_rule(entries, value, message):
    """Each entry, keyed by ``(entry, parameter name)``, raises
    ``ConfigurationError`` with ``message`` formatted with that name."""
    got = {key: raised(lambda: call(value)) for key, call in entries.items()}
    want = {key: (ConfigurationError, message.format(name=key[1])) for key in entries}
    assert got == want


Q_ENTRIES = {
    ("SimulationConfig", "q"): lambda q: SimulationConfig(n=40, N=80, eta_star=0.5, q=q),
    ("StudySpec.q_grid", "q"): lambda q: StudySpec(base=BASE, q_grid=(q,)),
    ("tau2", "q"): lambda q: tau2(0.5, 0.5, q, 1.0),
    ("build_report", "q"): lambda q: build_report(LAM, Y, 3, RESULT, q_assumed=q),
    ("estimate_from_design", "q"):
        lambda q: estimate_from_design(np.ones((3, 2)), Y, q_assumed=q),
    ("estimate_files", "q"): lambda q: estimate_files("no.csv", "no.txt", q_assumed=q),
}

Q_REQUIRED = ("SimulationConfig", "StudySpec.q_grid", "tau2")


@pytest.mark.parametrize("q, message", [
    *not_numbers(),
    pytest.param(0.0, "q must be in (0, 1], got 0.0", id="0"),
    pytest.param(ABOVE_ONE, f"q must be in (0, 1], got {ABOVE_ONE}", id="above-1"),
    pytest.param(math.nan, "q must be in (0, 1], got nan", id="nan"),
])
def test_every_entry_applies_the_q_rule(q, message):
    if q is None:  # to the report entries, q_assumed=None assumes no q
        assert build_report(LAM, Y, 3, RESULT, q_assumed=None).se_sparse is None
        check_rule({key: call for key, call in Q_ENTRIES.items() if key[0] in Q_REQUIRED}, q,
                   message)
    else:
        check_rule(Q_ENTRIES, q, message)


LEVEL_ENTRIES = {
    ("StudySpec", "level"): lambda level: StudySpec(base=BASE, ci_level=level),
    ("confidence_interval", "level"): lambda level: confidence_interval(0.5, 0.1, level),
    ("build_report", "level"): lambda level: build_report(LAM, Y, 3, RESULT, ci_level=level),
    ("estimate_from_design", "level"):
        lambda level: estimate_from_design(np.ones((3, 2)), Y, ci_level=level),
    ("estimate_files", "level"): lambda level: estimate_files("no.csv", "no.txt", ci_level=level),
    ("normal_quantile", "quantile level"): lambda p: normal_quantile(p),
}


@pytest.mark.parametrize("level, message", [
    *not_numbers(),
    pytest.param(0.0, "{name} must be in (0, 1), got 0.0", id="0"),
    pytest.param(1.0, "{name} must be in (0, 1), got 1.0", id="1"),
])
def test_every_entry_applies_the_level_rule(level, message):
    check_rule(LEVEL_ENTRIES, level, message)


DELTA_ENTRIES = {
    ("newton_estimate", "delta"): lambda delta: newton_estimate(LAM, Y, delta),
    ("grid_oracle", "delta"): lambda delta: grid_oracle(LAM, Y, 0.01, delta),
    ("estimate_from_design", "delta"):
        lambda delta: estimate_from_design(np.ones((3, 2)), Y, delta=delta),
    ("estimate_files", "delta"): lambda delta: estimate_files("no.csv", "no.txt", delta=delta),
}


@pytest.mark.parametrize("delta, message", [
    *not_numbers(),
    pytest.param(0.0, "delta must be in (0, 0.5), got 0.0", id="0"),
    pytest.param(0.5, "delta must be in (0, 0.5), got 0.5", id="0.5"),
    pytest.param(math.nan, "delta must be in (0, 0.5), got nan", id="nan"),
])
def test_every_entry_applies_the_delta_rule(delta, message):
    check_rule(DELTA_ENTRIES, delta, message)


ETA_STAR_ENTRIES = {
    ("SimulationConfig", "eta_star"): lambda eta: SimulationConfig(n=40, N=80, eta_star=eta),
    ("StudySpec.eta_grid", "eta_star"): lambda eta: StudySpec(base=BASE, eta_grid=(eta,)),
}


@pytest.mark.parametrize("eta_star, message", [
    *not_numbers(),
    pytest.param(BELOW_ZERO, f"eta_star must be in [0, 1), got {BELOW_ZERO}", id="below-0"),
    pytest.param(1.0, "eta_star must be in [0, 1), got 1.0", id="1"),
])
def test_every_entry_applies_the_eta_star_rule(eta_star, message):
    check_rule(ETA_STAR_ENTRIES, eta_star, message)


SIGMA_STAR2_ENTRIES = {
    ("SimulationConfig", "sigma_star2"):
        lambda s2: SimulationConfig(n=40, N=80, eta_star=0.5, sigma_star2=s2),
}


@pytest.mark.parametrize("sigma_star2, message", [
    *not_numbers(),
    pytest.param(0.0, "sigma_star2 must be positive and finite, got 0.0", id="0"),
    pytest.param(math.nan, "sigma_star2 must be positive and finite, got nan", id="nan"),
    pytest.param(math.inf, "sigma_star2 must be positive and finite, got inf", id="inf"),
])
def test_every_entry_applies_the_sigma_star2_rule(sigma_star2, message):
    check_rule(SIGMA_STAR2_ENTRIES, sigma_star2, message)


# A model needs N >= 1 markers; a sampler draws N >= 0 values.
MODEL_N_ENTRIES = {
    ("SimulationConfig", "N"): lambda N: SimulationConfig(n=40, N=N, eta_star=0.5),
}
SAMPLER_N_ENTRIES = {
    ("sample_allele_frequencies", "N"):
        lambda N: sample_allele_frequencies(N, 0.1, 0.5, replicate_rng(0)),
}


@pytest.mark.parametrize("N, message", [
    *not_numbers("an integer"),
    pytest.param(2.5, "{name} must be an integer, got 2.5", id="2.5"),
    pytest.param(10.0, "{name} must be an integer, got 10.0", id="10.0"),
])
def test_every_entry_takes_an_integer_N(N, message):
    check_rule({**MODEL_N_ENTRIES, **SAMPLER_N_ENTRIES}, N, message)


def test_every_entry_applies_the_N_rule():
    check_rule(MODEL_N_ENTRIES, 0, "need N >= 1, got N=0")
    check_rule(SAMPLER_N_ENTRIES, -1, "need N >= 0, got N=-1")
    assert sample_allele_frequencies(0, 0.1, 0.5, replicate_rng(0)).size == 0


FREQ_ENTRIES = {
    ("SimulationConfig", "freq_lo, freq_hi"):
        lambda lo_hi: SimulationConfig(n=40, N=80, eta_star=0.5, freq_lo=lo_hi[0],
                                       freq_hi=lo_hi[1]),
    ("sample_allele_frequencies", "lo, hi"):
        lambda lo_hi: sample_allele_frequencies(10, *lo_hi, replicate_rng(0)),
}


@pytest.mark.parametrize("lo_hi, message", [
    *[pytest.param((value, 0.5), f"freq_lo must be a number, got {value!r}", id=f"lo-{value!r}")
      for value in (True, "0.1", None)],
    *[pytest.param((0.1, value), f"freq_hi must be a number, got {value!r}", id=f"hi-{value!r}")
      for value in (True, "0.5", None)],
    # the type of both ends is checked before the range
    pytest.param((0.0, "0.5"), "freq_hi must be a number, got '0.5'", id="lo-0-hi-str"),
    pytest.param((0.0, 0.5), "need 0 < freq_lo <= freq_hi < 1, got [0.0, 0.5]", id="lo-0"),
    pytest.param((0.1, 1.0), "need 0 < freq_lo <= freq_hi < 1, got [0.1, 1.0]", id="hi-1"),
    pytest.param((0.5, 0.4), "need 0 < freq_lo <= freq_hi < 1, got [0.5, 0.4]", id="lo>hi"),
])
def test_every_entry_applies_the_frequency_rule(lo_hi, message):
    check_rule(FREQ_ENTRIES, lo_hi, message)


DESIGN_ENTRIES = {
    ("StudySpec", "design"): lambda design: StudySpec(base=BASE, design=design),
    ("simulate_cohort", "design"): lambda design: simulate_cohort(BASE, design=design),
    ("mp_check", "dist"): lambda dist: mp_check(10, 10, dist),
}


@pytest.mark.parametrize("design", ["uniform", "Gaussian", True, None, 0.5])
def test_every_entry_applies_the_design_rule(design):
    check_rule(DESIGN_ENTRIES, design, f"{{name}} must be 'genotype' or 'gaussian', got {design!r}")


# Parameters whose range one entry checks: the number rule comes first.
SINGLE_SITE = {
    ("grid_oracle", "grid_step"): lambda step: grid_oracle(LAM, Y, step),
    ("StudySpec.a_grid", "a grid value"): lambda a: StudySpec(base=BASE, a_grid=(a,)),
}
SINGLE_SITE_COUNTS = {
    ("SimulationConfig", "n"): lambda n: SimulationConfig(n=n, N=80, eta_star=0.5),
    ("SimulationConfig", "seed"):
        lambda seed: SimulationConfig(n=40, N=80, eta_star=0.5, seed=seed),
    ("SimulationConfig", "replicates"):
        lambda reps: SimulationConfig(n=40, N=80, eta_star=0.5, replicates=reps),
    ("StudySpec", "workers"): lambda workers: StudySpec(base=BASE, workers=workers),
    ("build_report", "n_markers"): lambda N: build_report(LAM, Y, N, RESULT),
}


@pytest.mark.parametrize("value, message", not_numbers())
def test_single_site_parameters_apply_the_number_rule(value, message):
    check_rule(SINGLE_SITE, value, message)


@pytest.mark.parametrize("value, message", [
    *not_numbers("an integer"),
    pytest.param(2.5, "{name} must be an integer, got 2.5", id="2.5"),
])
def test_single_site_counts_apply_the_integer_rule(value, message):
    check_rule(SINGLE_SITE_COUNTS, value, message)


# The range of each single-site parameter, and the shape rules that one
# entry applies: each fault raises one error with one message.
SINGLE_SITE_FAULTS = {
    "a-grid-0": (lambda: StudySpec(base=BASE, a_grid=(0.0,)),
                 ConfigurationError, "a grid value 0.0 must be positive"),
    "replicates-0": (lambda: SimulationConfig(n=40, N=80, eta_star=0.5, replicates=0),
                     ConfigurationError, "replicates must be >= 1, got 0"),
    "policy": (lambda: standardize(np.eye(3), policy="keep"),
               ConfigurationError, "policy must be 'error' or 'drop', got 'keep'"),
    "freqs-2-D": (lambda: sample_genotypes(4, np.full((2, 3), 0.3), replicate_rng(0)),
                  ConfigurationError, "freqs must be a 1-D vector"),
    "effects-lengths": (lambda: EffectVector(np.zeros(3), np.ones(2, dtype=bool), 1.0),
                        ShapeMismatchError, "u and support must have the same length"),
    "effects-off-support":
        (lambda: EffectVector(np.array([0.0, 1.0]), np.array([True, False]), 1.0),
         ConfigurationError, "u must vanish off the support"),
    "non-square": (lambda: eigendecompose(np.ones((2, 3))),
                   ShapeMismatchError, "expected a square matrix, got (2, 3)"),
    "covariate-rows":
        (lambda: residualize(np.arange(4.0), np.ones((3, 1))),
         ShapeMismatchError, "covariates (3, 1) do not align with phenotype of length 4"),
}


@pytest.mark.parametrize("case", SINGLE_SITE_FAULTS)
def test_single_site_faults_raise_one_error(case):
    call, error, message = SINGLE_SITE_FAULTS[case]
    assert raised(call) == (error, message)


def test_n_is_at_least_two():
    assert raised(lambda: SimulationConfig(n=1, N=80, eta_star=0.5)) == (
        ConfigurationError, "need n >= 2, got n=1"
    )


# Counts that take n >= 2 beside SimulationConfig's n.
COUNT_ENTRIES = {
    ("sample_genotypes", "n"): lambda n: sample_genotypes(n, np.full(3, 0.3), replicate_rng(0)),
    ("mp_check", "n"): lambda n: mp_check(n, 80),
    ("mp_check", "N"): lambda N: mp_check(40, N),
}


@pytest.mark.parametrize("value, message", [
    *not_numbers("an integer"),
    pytest.param(2.7, "{name} must be an integer, got 2.7", id="2.7"),
    pytest.param(40.0, "{name} must be an integer, got 40.0", id="40.0"),
    pytest.param(1, "need {name} >= 2, got {name}=1", id="1"),
    pytest.param(-1, "need {name} >= 2, got {name}=-1", id="-1"),
])
def test_sampler_and_mp_check_counts_apply_the_count_rule(value, message):
    check_rule(COUNT_ENTRIES, value, message)


SEED_ENTRIES = {
    ("SimulationConfig", "seed"):
        lambda seed: SimulationConfig(n=40, N=80, eta_star=0.5, seed=seed),
    ("mp_check", "seed"): lambda seed: mp_check(10, 10, seed=seed),
}


@pytest.mark.parametrize("seed, message", [
    *not_numbers("an integer"),
    pytest.param(0.5, "seed must be an integer, got 0.5", id="0.5"),
    pytest.param(-1, "seed must be >= 0, got -1", id="-1"),
])
def test_every_entry_applies_the_seed_rule(seed, message):
    check_rule(SEED_ENTRIES, seed, message)


def test_every_n_rule_has_one_wording():
    """A one-row array is a shape fault of ``standardize``'s data; the
    other entries take n as a parameter."""
    one_row = np.array([[0, 1, 2]])
    assert raised(lambda: GenotypeMatrix(one_row)) == (ConfigurationError, "need n >= 2, got n=1")
    assert raised(lambda: GenotypeMatrix(np.zeros((2, 0)))) == (
        ConfigurationError, "need N >= 1, got N=0"
    )
    assert raised(lambda: standardize(one_row)) == (ShapeMismatchError, "need n >= 2, got n=1")
    assert raised(lambda: mp_check(1, 80)) == (ConfigurationError, "need n >= 2, got n=1")
