"""Spectral profile-likelihood heritability estimation for high-dimensional
linear mixed models, with sparse-aware standard errors and a seeded
Monte-Carlo study harness.

Every public name is listed once in ``_EXPORTS`` and loaded from its module
on first access (PEP 562), so ``from specherit import newton_estimate``
imports the solver without the study harness.
"""

import importlib

_EXPORTS = {
    name: module
    for module, names in {
        "errors": """ConfigurationError DataError DataParseError DegenerateDataError
            MonomorphicColumnError NumericalFailureError RankDeficientCovariatesError
            ShapeMismatchError SpecheritError UnidentifiableModelError""",
        "harness": """ReplicateRecord StudySpec estimate_files estimate_from_design mp_check
            run_replicate run_study study_records summarize_replicates""",
        "inference": """EstimateReport build_report confidence_interval gamma2_limit gamma_n2
            normal_quantile s_empirical s_limit se_q1 tau2""",
        "likelihood": """SolverResult d2loglik dloglik g grid_oracle loglik
            newton_estimate profile_sigma2""",
        "spectral": """MPLaw SpectralDecomposition StandardizedDesign decompose eigendecompose
            esd kinship mp_cdf mp_integrate residualize rotate standardize""",
        "synthcohort": """EffectVector GenotypeMatrix SimulatedCohort SimulationConfig
            effect_scale replicate_rng sample_allele_frequencies sample_effects
            sample_genotypes simulate_cohort simulate_phenotype""",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
