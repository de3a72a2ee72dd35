"""The package namespace: the names it exports, the modules a name loads,
and the names the benchmark's tracer rebinds."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import specherit

from conftest import run_child, seeded_spectrum

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
        "SolverResult", "d2loglik", "dloglik", "g", "grid_oracle", "loglik",
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
    assert len(names) == 60
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
        "from specherit.harness import main; print('concurrent.futures' in sys.modules); "
        # a serial study runs without a pool, and a pooled one in this process
        "from specherit import SimulationConfig, StudySpec, study_records; "
        "base = SimulationConfig(n=20, N=40, eta_star=0.5, replicates=2); "
        "print([r.error for r in study_records(StudySpec(base=base))], "
        "'concurrent.futures' in sys.modules); "
        "print([r.error for r in study_records(StudySpec(base=base, workers=2))], "
        "sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "False", "['', ''] False", "['', ''] []", ""]


def test_errors_is_a_leaf_module():
    """Every module imports the parameter rules from ``errors``, so it must
    load nothing else, and the solver path must stay free of the harness."""
    code = (
        "import sys; import specherit.errors; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('specherit'))); "
        "from specherit import build_report, newton_estimate; "
        "print(sorted({'specherit.harness', 'specherit.synthcohort'} & sys.modules.keys()))"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["['specherit', 'specherit.errors']", "[]", ""]



def load_bench_tracer():
    """``bench/tracer.py``, loaded from its file as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_binds_and_restores():
    """Every name the tracer spans or counts is a function of its module; a
    solve and its report run under the tracer, and ``uninstall`` puts every
    original back. A refactor that breaks the benchmark's ``--trace 1``
    fails here."""
    tracer = load_bench_tracer()
    originals = {}
    for qualname in tracer.SPANNED + tracer.COUNTED:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"specherit.{module_name}")
        assert callable(getattr(module, attr, None)), qualname
        originals[module, attr] = getattr(module, attr)
    lam, y = seeded_spectrum(seed=1, n=30, eta=0.5)
    likelihood, inference = sys.modules["specherit.likelihood"], sys.modules["specherit.inference"]
    traced = tracer.Tracer()
    traced.install()
    try:
        result = likelihood.newton_estimate(lam, y)
        inference.build_report(lam, y, 60, result)
    finally:
        traced.uninstall()
    assert [span[0] for span in traced.spans] == [
        "likelihood.newton_estimate", "inference.build_report"
    ]
    assert traced.counts["likelihood.solves"] == 1
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "specherit":
            for _, attr in originals:
                assert not hasattr(getattr(module, attr, None), "__wrapped__"), (name, attr)
