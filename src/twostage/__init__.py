"""Two-stage filtration tests and shrinkage estimators for composite null
hypotheses, with a reproducible Monte-Carlo harness for multiple-testing
studies.

Public names resolve lazily (PEP 562): ``from twostage import X`` imports
only the submodule that defines ``X``, so a caller that needs the regime
classifier never loads the simulation engine.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "MSE_RATIO_PRESETS",
        "EfficiencyClass",
        "LRegion",
        "MseRatioPoint",
        "MseRatioPreset",
        "ParamPoint",
        "ParamSequence",
        "PowerSequence",
        "RegimeClassification",
        "classify_product_regime",
        "mse_product_closed",
        "mse_ratio_exact",
    ),
    "dist": ("RandomStream",),
    "estimators": (
        "EstimatePair",
        "coord_pvalue",
        "joint_pvalue",
        "product_stat",
        "sobel_stat",
    ),
    "exceptions": (
        "ConfigError",
        "DataFormatError",
        "DegenerateInputError",
        "SingularDesignError",
        "TwoStageError",
    ),
    "exact": ("FwerBound", "exact_fwer_bound", "fwer_bound_from_survivors"),
    "ingest": ("ObservationTable", "ols_mediation_fit", "read_observations"),
    "procedure": ("TwoStageOutcome", "run_two_stage"),
    "rules": (
        "Adjustment",
        "BonferroniOverUnfiltered",
        "ChiSquarePValue",
        "FiltrationAware",
        "FiltrationRule",
        "Method",
        "MinPValue",
        "NoFilter",
        "ProductThreshold",
        "standard_methods",
    ),
    "scenario": (
        "BUILTIN_SCENARIOS",
        "Assignment",
        "MixtureRow",
        "NormalMeanPrior",
        "ScenarioMixture",
        "builtin_scenario",
    ),
    "simulate": ("MethodResult", "ReportMeta", "SimulationReport", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
