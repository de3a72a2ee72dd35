"""The package namespace: the names it exports, and the modules a name loads."""

import importlib

import pytest

import specherit

from conftest import run_child

# Each exported name under the module that defines it.
EXPORTS = {
    "errors": [
        "ConfigurationError", "DataError", "DataParseError", "DegenerateDataError",
        "MonomorphicColumnError", "NumericalFailureError", "RankDeficientCovariatesError",
        "ShapeMismatchError", "SpecheritError", "UnidentifiableModelError",
    ],
    "harness": [
        "ReplicateRecord", "StudySpec", "estimate_files", "estimate_from_design", "mp_check",
        "run_replicate", "run_study", "study_records", "summarize_replicates",
    ],
    "inference": [
        "EstimateReport", "build_report", "confidence_interval", "gamma2_limit", "gamma_n2",
        "normal_quantile", "s_empirical", "s_limit", "se_q1", "tau2",
    ],
    "likelihood": [
        "SolverConfig", "SolverResult", "d2loglik", "dloglik", "g", "grid_oracle", "loglik",
        "newton_estimate", "profile_sigma2",
    ],
    "spectral": [
        "MPLaw", "SpectralDecomposition", "StandardizedDesign", "decompose", "eigendecompose",
        "esd", "kinship", "mp_cdf", "mp_integrate", "residualize", "rotate", "standardize",
    ],
    "synthcohort": [
        "EffectVector", "GenotypeMatrix", "SimulatedCohort", "SimulationConfig", "effect_scale",
        "replicate_rng", "sample_allele_frequencies", "sample_effects", "sample_genotypes",
        "simulate_cohort", "simulate_phenotype",
    ],
}


def test_exports_are_the_defining_modules_objects():
    names = {name for names in EXPORTS.values() for name in names}
    assert len(names) == 61
    assert set(specherit.__all__) == names
    assert names <= set(dir(specherit))
    for module_name, module_names in EXPORTS.items():
        module = importlib.import_module(f"specherit.{module_name}")
        for name in module_names:
            obj = getattr(specherit, name)
            assert obj is getattr(module, name)
            assert obj.__module__ == module.__name__


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from specherit import *", namespace)
    assert set(specherit.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="module 'specherit' has no attribute 'no_such_name'"):
        specherit.no_such_name


def test_solver_path_loads_neither_harness_nor_pool():
    code = (
        "import sys; from specherit import build_report, newton_estimate, rotate; "
        "print(sorted({'specherit.harness', 'specherit.synthcohort', 'concurrent.futures'}"
        " & sys.modules.keys())); "
        "from specherit.harness import main; print('concurrent.futures.process' in sys.modules); "
        # a serial study runs without the pool, too
        "from specherit import SimulationConfig, StudySpec, study_records; "
        "base = SimulationConfig(n=20, N=40, eta_star=0.5, replicates=2); "
        "print([r.error for r in study_records(StudySpec(base=base))], "
        "'concurrent.futures.process' in sys.modules)"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "False", "['', ''] False", ""]

