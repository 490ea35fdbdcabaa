"""What wflens needs at run time: no scipy, no pkgutil, and no file system for its bundled data.

Also the package namespace: each export loads its home module on first use,
so the YAML-side exports load neither numpy nor click.
"""

import importlib
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import wflens

from conftest import build_reliability_files

SRC = str(Path(wflens.__file__).resolve().parents[1])
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None; "
RUN_CLI = "import sys; from wflens.cli import main; sys.argv[0] = 'wflens'; main()"
FIXTURES = Path(__file__).parent / "fixtures"

EXPORTS = [
    "AbstractionRule", "AbstractionRuleSet", "Catalog", "CatalogEntry", "CatalogReport",
    "ComparisonReport", "ConcretePath", "ConstructBag", "CorpusStats", "Diagnostic",
    "EvolutionPoint", "EvolutionSeries", "FEATURES", "FeatureUsage", "HistoryInterval", "Index",
    "Key", "LEVELS", "Mapping", "PLACEHOLDER_KINDS", "Placeholder", "ReliabilityMetrics",
    "RiskModel", "RiskSummary", "RunRecord", "Scalar", "ScanResult", "Sequence",
    "ValidationReport", "Wildcard", "WorkflowMetrics", "WorkflowParseError", "WorkflowTree",
    "abstract_path", "abstract_workflow", "catalog_from_data", "catalog_to_data", "classify",
    "compare_groups", "corpus_stats", "corpus_stats_to_dict", "default_catalog",
    "default_risk_model", "default_ruleset", "discover_workflow_files", "enumerate_paths",
    "evaluate", "evolution_series", "extract_catalog", "level_of", "load_catalog",
    "load_history_manifest", "load_risk_model", "load_run_records", "materialize_snapshots",
    "metrics_to_dict", "month_range", "parse_construct", "parse_path", "parse_workflow",
    "parse_workflow_file", "regress_features", "regress_sizes", "reliability_metrics",
    "render_construct", "render_path", "scan_file", "scan_line", "scan_record", "scan_text",
    "tercile_split", "validate_catalog", "validate_workflow", "workflow_metrics",
]
"""``wflens.__all__`` as the package has always exported it."""
SUBMODULES = [
    "abstraction", "catalog", "corpus", "instants", "lint", "metrics", "model", "reliability", "scan", "stats"
]


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_import_loads_no_scipy():
    proc = python(
        "import sys, wflens.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_import_no_pkgutil():
    fixtures = str(Path(__file__).parent / "fixtures")
    proc = python(
        "import sys; before = set(sys.modules); from wflens.cli import main\n"
        "try:\n    main(['lint', '--format', 'json', sys.argv[1]])\nexcept SystemExit:\n    pass\n"
        "print('pkgutil' in set(sys.modules) - before, file=sys.stderr)",
        fixtures,
    )
    assert '"diagnostics"' in proc.stdout
    assert proc.stderr.splitlines()[-1] == "False"


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs ~13 ms to import; np.percentile and np.unique load it on first use
    fixtures = Path(__file__).parent / "fixtures"
    sizes, runs = build_reliability_files(tmp_path)
    reliability = ["--runs", str(runs), "--sizes", str(sizes), "--window", "2023-01-01..2023-12-31"]
    history = ["--manifest", str(fixtures / "history" / "manifest.jsonl"), "--from", "2023-01", "--to", "2023-05"]
    commands = [
        ["corpus", "stats", str(fixtures)],
        ["corpus", "evolve", *history],
        ["corpus", "trend", *history],
        ["reliability", "compare", *reliability],
        ["reliability", "regress", "--analysis", "sizes", *reliability],
        ["reliability", "regress", "--analysis", "features", *reliability],
    ]
    proc = python(
        "import io, json, sys; from contextlib import redirect_stdout; from wflens.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        try:\n            main(args)\n        except SystemExit as exc:\n            code = exc.code\n"
        "    print(args[:2], code, 'numpy.ma' in sys.modules)",
        json.dumps(commands),
    )
    assert proc.stdout.splitlines() == [f"{args[:2]} 0 False" for args in commands]


def test_bundled_data_loads_from_a_zip_install(tmp_path):
    package = Path(wflens.__file__).parent
    archive = tmp_path / "wflens.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for file in package.rglob("*"):
            if file.suffix in (".py", ".json"):
                zf.write(file, file.relative_to(package.parent).as_posix())
    code = (
        "import sys, wflens\n"
        "assert wflens.__file__.startswith(sys.argv[1]), wflens.__file__\n"
        "print(len(wflens.default_catalog().entries), sorted(wflens.default_risk_model().thresholds))"
    )
    env = dict(os.environ, PYTHONPATH=str(archive))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(archive)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    expected = f"{len(wflens.default_catalog().entries)} {sorted(wflens.default_risk_model().thresholds)}"
    assert proc.stdout.strip() == expected


def test_regress_runs_with_scipy_blocked(tmp_path):
    sizes, runs = build_reliability_files(tmp_path)
    args = ["reliability", "regress", "--runs", str(runs), "--sizes", str(sizes)]
    args += ["--window", "2023-01-01..2023-12-31"]
    for analysis in ("sizes", "features"):
        argv = [*args, "--analysis", analysis]
        free = python(RUN_CLI, *argv)
        blocked = python(BLOCK_SCIPY + RUN_CLI, *argv)
        assert free.returncode == blocked.returncode == 0, blocked.stderr
        assert '"predictor"' in free.stdout
        assert blocked.stdout == free.stdout


def test_all_is_the_recorded_exports():
    assert wflens.__all__ == EXPORTS


def test_each_export_is_its_home_modules_object():
    homes = {}
    for module in SUBMODULES:
        home = importlib.import_module(f"wflens.{module}")
        for name in wflens._EXPORTS[module]:
            assert getattr(wflens, name) is getattr(home, name), name
            homes[name] = module
    assert sorted(homes) == EXPORTS
    assert set(EXPORTS) <= set(dir(wflens))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_is_an_attribute_after_a_bare_import(module):
    # one fresh process per name: importing one submodule imports others as a side effect
    proc = python("import sys, wflens; print(getattr(wflens, sys.argv[1]).__name__)", module)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"wflens.{module}"


def test_unknown_names_are_missing():
    with pytest.raises(AttributeError, match="'nope'"):
        wflens.nope
    assert not hasattr(wflens, "nope")
    with pytest.raises(ImportError):
        exec("from wflens import nope")


def test_bare_import_loads_no_submodule():
    proc = python("import sys, wflens; print(sorted(m for m in sys.modules if m.startswith('wflens.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_yaml_side_exports_load_no_numpy_or_click():
    proc = python(
        "import sys\n"
        "from wflens import scan_text, parse_workflow, default_catalog, evaluate\n"
        "text = open(sys.argv[1], encoding='utf-8').read()\n"
        "parse_workflow(text)\n"
        "result = scan_text(text, sys.argv[1], default_catalog())\n"
        "diagnostics, risk = evaluate(result.metrics, file=sys.argv[1])\n"
        "print(len(diagnostics), sorted(m for m in sys.modules if m.startswith(('click', 'numpy'))))",
        str(FIXTURES / "kitchen.yml"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=1)[1].strip() == "[]"
