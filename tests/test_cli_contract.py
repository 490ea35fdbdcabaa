"""Every command keeps the exit-code contract on generated input.

``wflens.cli.main`` runs in-process on generated workflow text, JSONL
lines of runs, history manifests and scan records, and JSON risk models
and catalogs; it must end in exit code 0, 1 or 2 and let no other exception
escape.  Every command line is well-formed, so a usage error (64) would
misreport a fault in the data.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wflens.abstraction import PLACEHOLDER_KINDS
from wflens.catalog import FEATURES, LEVELS
from wflens.cli import main
from wflens.metrics import SIZE_METRICS
from wflens.reliability import CONCLUSIONS

WINDOW = "2023-01-01..2023-12-31"
HISTORY = ["--manifest", "manifest.jsonl", "--from", "2023-01", "--to", "2023-04"]
PAIR = ["--runs", "runs.jsonl", "--sizes", "sizes.jsonl", "--window", WINDOW]
COMMANDS = {
    "scan": ["scan", "wf.yml"],
    "scan-jsonl": ["scan", "--format", "jsonl", "wf.yml"],
    "scan-text": ["scan", "--format", "text", "wf.yml"],
    "lint": ["lint", "wf.yml"],
    "lint-json": ["lint", "--format", "json", "wf.yml"],
    "catalog-validate": ["catalog", "validate"],
    "catalog-extract": ["catalog", "extract", "wf.yml"],
    "catalog-classify": ["catalog", "classify", "jobs.<id>.steps[*].run"],
    "corpus-stats": ["corpus", "stats", "wf.yml"],
    "corpus-evolve": ["corpus", "evolve", *HISTORY],
    "corpus-evolve-json": ["corpus", "evolve", "--format", "json", *HISTORY],
    "corpus-trend": ["corpus", "trend", *HISTORY],
    "reliability-metrics": ["reliability", "metrics", "--runs", "runs.jsonl", "--window", WINDOW],
    "reliability-compare": ["reliability", "compare", *PAIR],
    "reliability-regress": ["reliability", "regress", *PAIR],
    "reliability-regress-features": ["reliability", "regress", "--analysis", "features", *PAIR],
    "lint-model": ["lint", "--model", "model.json", "wf.yml"],
    "lint-catalog": ["lint", "--catalog", "catalog.json", "wf.yml"],
    "scan-catalog": ["scan", "--catalog", "catalog.json", "wf.yml"],
    "catalog-validate-catalog": ["catalog", "validate", "--catalog", "catalog.json"],
    "catalog-extract-catalog": ["catalog", "extract", "--catalog", "catalog.json", "wf.yml"],
}

KEYS = st.sampled_from(
    ["on", "true", "yes", "jobs", "build", "steps", "runs-on", "uses", "run", "env", "with", "matrix", "name"]
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=6))
YAML_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3), max_leaves=10
)
WORKFLOWS = st.one_of(
    st.dictionaries(KEYS, YAML_VALUES, max_size=4).map(lambda d: yaml.safe_dump(d, sort_keys=False)),
    st.text(max_size=40),
)

IDS = st.sampled_from(["a", "b", "c", "d"])
INSTANTS = st.one_of(
    st.sampled_from(
        ["2023-01-05", "2023-02-01T12:00:00Z", "2023-03-10T08:00:00+02:00", "2023-12-31",
         "9999-12-31T23:59:59-05:00", "0001-01-01T00:00:00+05:00", "soon"]
    ),
    st.integers(),
    st.none(),
)
NUMBERS = st.one_of(
    st.integers(0, 200), st.integers(), st.floats(), st.sampled_from([1e20, 1e300, 2**80]),
    st.booleans(), st.text(max_size=3),
)
DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit


def jsonl(fields: dict) -> st.SearchStrategy[str]:
    """JSONL text: two lines in three are records holding some of ``fields``.

    The rest are any text, or a line nested too deeply to decode.
    """
    record = st.fixed_dictionaries({}, optional=fields).map(json.dumps)
    lines = st.lists(st.one_of(record, record, st.text(max_size=12) | st.just(DEEP)), max_size=12)
    return lines.map(lambda ls: "".join(line + "\n" for line in ls))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def json_file(shaped: st.SearchStrategy) -> st.SearchStrategy[str]:
    """JSON text of a value that is mostly ``shaped``, else any JSON value or one nested too deeply."""
    return st.one_of(shaped, shaped, JSON).map(json.dumps) | st.just(DEEP)


def entries(keys: st.SearchStrategy, value: st.SearchStrategy) -> st.SearchStrategy:
    """A JSON object of ``value`` under ``keys``, or any JSON value in its place."""
    return st.dictionaries(keys, value, max_size=3) | JSON


def records(fields: dict, optional: dict | None = None) -> st.SearchStrategy:
    """A list of objects with ``fields`` (each value or any JSON value), or any JSON value in its place."""
    item = st.fixed_dictionaries(
        {k: v | JSON for k, v in fields.items()}, optional={k: v | JSON for k, v in (optional or {}).items()}
    )
    return st.lists(item | JSON, max_size=3) | JSON


RATIOS = st.floats(0.01, 10.0) | JSON
MODELS = json_file(
    st.fixed_dictionaries(
        {},
        optional={
            "size_thresholds": entries(st.sampled_from(SIZE_METRICS), st.lists(RATIOS, max_size=3)),
            "size_effects": entries(
                st.sampled_from(SIZE_METRICS),
                st.fixed_dictionaries({}, optional={"failure_or": RATIOS, "commits_irr": RATIOS}),
            ),
            "feature_effects": entries(
                st.sampled_from(FEATURES[:3]),
                st.fixed_dictionaries({}, optional={k: RATIOS for k in ("presence_or", "per_path_irr")}),
            ),
            "version": JSON,
        },
    )
)
CATALOGS = json_file(
    st.fixed_dictionaries(
        {
            "constructs": records(
                {
                    "construct": st.sampled_from(
                        ["on", "name", "jobs.<id>.runs-on", "jobs.<id>.steps[*].run", "a..b"]
                    ),
                    "level": st.sampled_from(LEVELS),
                    "feature": st.sampled_from(FEATURES[:3]),
                },
                {"status": st.sampled_from(["active", "deprecated"]), "structural": JSON, "provenance": JSON},
            )
        },
        optional={
            "rules": records(
                {
                    "prefix": st.lists(st.sampled_from(["jobs", "[*]", "<id>", "steps", "<bad>"]), max_size=3),
                    "kind": st.sampled_from(PLACEHOLDER_KINDS),
                },
                {"except": st.lists(st.sampled_from(["include", "exclude"]), max_size=2)},
            ),
            "version": JSON,
        },
    )
)


RUNS = jsonl(
    {
        "workflow_id": IDS,
        "commit_sha": st.sampled_from(["x", "y", "z"]),
        "committed_at": INSTANTS,
        "conclusion": st.sampled_from(CONCLUSIONS + ("weird",)),
    }
)
MANIFEST = jsonl(
    {
        "workflow_id": IDS,
        "valid_from": INSTANTS,
        "valid_to": INSTANTS,
        "file": st.sampled_from(["wf.yml", "missing.yml"]),
    }
)
USAGE = st.fixed_dictionaries(
    {"present": st.booleans(), "structural_only": st.booleans(), "n_paths": NUMBERS}
)
SIZES = jsonl(
    {
        "file": IDS,
        "n_paths": NUMBERS,
        "n_constructs": NUMBERS,
        "n_features": NUMBERS,
        "path_construct_ratio": NUMBERS,
        "features": st.dictionaries(st.sampled_from(FEATURES[:3]), USAGE, max_size=3),
    }
)

GOOD_RUN = '{"workflow_id": "a", "commit_sha": "x", "committed_at": "2023-02-01", "conclusion": "success"}\n'
GOOD_SIZES = '{"file": "a", "n_paths": 3, "n_constructs": 2, "n_features": 1, "path_construct_ratio": 1.5}\n'
GOOD_MANIFEST = '{"workflow_id": "a", "valid_from": "2022-01-01", "file": "wf.yml"}\n'


@pytest.fixture(scope="module")
def workdir():
    """A scratch directory that is the working directory while the module runs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def case(command: str, **files: str):
    """An explicit example of ``command`` on ``files``, with empty or minimal inputs for the rest."""
    inputs = {"workflow": "on: push\n", "runs": "", "manifest": "", "sizes": "", "model": "{}", "catalog": "{}"}
    return example(command=command, **{**inputs, **files})


def pair_sizes(*rows: tuple[str, str]) -> str:
    """Sizes lines for workflows ``a``, ``b``, ``c``..., each GOOD_SIZES with one replacement."""
    return "".join(GOOD_SIZES.replace('"a"', f'"{w}"').replace(*row) for w, row in zip("abcd", rows))


THREE_WORKFLOWS = "".join(  # a failure in three runs of each
    GOOD_RUN.replace('"a"', f'"{w}"').replace('"x"', f'"{c}"').replace("success", outcome)
    for w in "abc" for c, outcome in (("x", "success"), ("y", "failure"), ("z", "success"))
)
JOBS = "on: push\njobs:\n  build:\n    runs-on: x\n"


def usage(present: bool, n_paths: float) -> tuple[str, str]:
    """The replacement in a sizes line that gives it this usage of ``commands``."""
    feature = {"commands": {"present": present, "structural_only": False, "n_paths": n_paths}}
    return "}", ', "features": ' + json.dumps(feature) + "}"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    workflow=WORKFLOWS,
    runs=RUNS,
    manifest=MANIFEST,
    sizes=SIZES,
    model=MODELS,
    catalog=CATALOGS,
)
@case("reliability-metrics", runs=GOOD_RUN.replace("2023-02-01", "9999-12-31T23:59:59-05:00"))
@case("corpus-evolve", manifest=GOOD_MANIFEST.replace("2022-01-01", "0001-01-01T00:00:00+05:00"))
@case("reliability-regress-features", runs=GOOD_RUN, sizes=pair_sizes(usage(True, math.inf)))
@case("reliability-regress", runs=GOOD_RUN, sizes=GOOD_SIZES.replace('"n_paths": 3', '"n_paths": Infinity'))
@case("reliability-compare", runs=GOOD_RUN, sizes=GOOD_SIZES.replace('"n_constructs": 2', '"n_constructs": NaN'))
@case("reliability-regress", runs=THREE_WORKFLOWS,
      sizes=pair_sizes(*(('"n_paths": 3', f'"n_paths": {n}') for n in (1, 2, 1e20))))
@case("reliability-regress-features", runs=THREE_WORKFLOWS,
      sizes=pair_sizes(usage(True, 1), usage(False, 0), usage(True, 1e20)))
@case("reliability-regress-features", runs=THREE_WORKFLOWS.replace("failure", "success"),
      sizes=pair_sizes(usage(True, 1), usage(False, 0), usage(True, 2)))
@case("reliability-metrics", runs=GOOD_RUN + DEEP + "\n")
@case("reliability-compare", runs=GOOD_RUN, sizes=DEEP)
@case("corpus-trend", manifest=DEEP)
@case("lint-model", model="[1, 2]")
@case("lint-model", model='{"size_thresholds": [1]}')
@case("lint-model", model=DEEP)
@case("scan-catalog", catalog='{"constructs": [{"construct": 5, "level": "job", "feature": "naming"}]}')
@case("scan-catalog", workflow=JOBS, catalog='{"constructs": [], "rules": [{"prefix": ["jobs"], "kind": "bogus"}]}')
@case("catalog-extract-catalog",
      catalog='{"constructs": [], "rules": [{"prefix": ["jobs"], "kind": "id", "except": ["include", 1]}]}')
@case("catalog-validate-catalog", catalog=DEEP)
def test_every_command_keeps_the_exit_code_contract(
    workdir, command, workflow, runs, manifest, sizes, model, catalog
):
    for name, text in (("wf.yml", workflow), ("runs.jsonl", runs), ("manifest.jsonl", manifest),
                       ("sizes.jsonl", sizes), ("model.json", model), ("catalog.json", catalog)):
        (workdir / name).write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(COMMANDS[command])
    assert exit_info.value.code in (0, 1, 2)


def test_out_of_range_window_keeps_the_contract(workdir):
    (workdir / "runs.jsonl").write_text(GOOD_RUN, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["reliability", "metrics", "--runs", "runs.jsonl",
              "--window", "0001-01-01T00:00:00+05:00..2023-12-31"])
    assert exit_info.value.code == 64


def test_a_fit_held_at_the_clip_gives_no_row(workdir, capsys):
    """With no failure in any run, the failure-odds fits diverge and are dropped; stdout stays JSON."""
    (workdir / "runs.jsonl").write_text(THREE_WORKFLOWS.replace("failure", "success"), encoding="utf-8")
    sizes = pair_sizes(usage(True, 1), usage(False, 0), usage(True, 2))
    (workdir / "sizes.jsonl").write_text(sizes, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(COMMANDS["reliability-regress-features"])
    assert exit_info.value.code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
    assert [(r["analysis"], r["outcome"]) for r in rows] == [("presence", "n_commits"), ("per_path", "n_commits")]
