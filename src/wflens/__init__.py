"""Workflow-file analytics: paths, constructs, corpus statistics, reliability.

``import wflens`` imports none of its submodules.  Each export is loaded
from its home module on first use (PEP 562), so the YAML-side exports never
load numpy.  The submodules are reachable as attributes too.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "abstraction": (
        "PLACEHOLDER_KINDS",
        "AbstractionRule",
        "AbstractionRuleSet",
        "ConstructBag",
        "Placeholder",
        "Wildcard",
        "abstract_path",
        "abstract_workflow",
        "default_ruleset",
        "parse_construct",
        "render_construct",
    ),
    "catalog": (
        "FEATURES",
        "LEVELS",
        "Catalog",
        "CatalogEntry",
        "CatalogReport",
        "ValidationReport",
        "catalog_from_data",
        "catalog_to_data",
        "classify",
        "default_catalog",
        "extract_catalog",
        "level_of",
        "load_catalog",
        "validate_catalog",
        "validate_workflow",
    ),
    "corpus": (
        "CorpusStats",
        "EvolutionPoint",
        "EvolutionSeries",
        "HistoryInterval",
        "corpus_stats",
        "corpus_stats_to_dict",
        "evolution_series",
        "load_history_manifest",
        "materialize_snapshots",
        "month_range",
    ),
    "instants": (),
    "lint": (
        "Diagnostic",
        "RiskModel",
        "RiskSummary",
        "default_risk_model",
        "evaluate",
        "load_risk_model",
    ),
    "metrics": (
        "FeatureUsage",
        "WorkflowMetrics",
        "metrics_to_dict",
        "workflow_metrics",
    ),
    "model": (
        "ConcretePath",
        "Index",
        "Key",
        "Mapping",
        "Scalar",
        "Sequence",
        "WorkflowParseError",
        "WorkflowTree",
        "discover_workflow_files",
        "enumerate_paths",
        "parse_path",
        "parse_workflow",
        "parse_workflow_file",
        "render_path",
    ),
    "reliability": (
        "ComparisonReport",
        "ReliabilityMetrics",
        "RunRecord",
        "compare_groups",
        "load_run_records",
        "regress_features",
        "regress_sizes",
        "reliability_metrics",
        "tercile_split",
    ),
    "scan": (
        "ScanResult",
        "scan_file",
        "scan_line",
        "scan_record",
        "scan_text",
    ),
    "stats": (),
}
"""Each submodule reachable as an attribute of the package, with the names it exports."""

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
