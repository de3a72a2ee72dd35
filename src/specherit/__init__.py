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
        "errors": """ConfigurationError DataError MonomorphicColumnError NumericalFailureError
            ShapeMismatchError SpecheritError UnidentifiableModelError""",
        "harness": """ReplicateRecord StudySpec estimate_files estimate_from_design mp_check
            run_replicate run_study study_records""",
        "inference": "EstimateReport build_report gamma_n2 se_q1 tau2",
        "likelihood": "SolverResult d2loglik dloglik grid_oracle newton_estimate",
        "spectral": """MPLaw SpectralDecomposition StandardizedDesign decompose eigendecompose
            esd kinship mp_cdf mp_integrate residualize rotate standardize""",
        "synthcohort": """EffectVector GenotypeMatrix SimulatedCohort SimulationConfig
            replicate_rng sample_allele_frequencies sample_genotypes simulate_cohort""",
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
