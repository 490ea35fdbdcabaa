"""Every command keeps the exit-code contract on generated input.

``wflens.cli.main`` runs in-process on generated workflow text and JSONL
lines of runs, history manifests and scan records; it must end in exit
code 0, 1, 2 or 64 and let no other exception escape.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wflens.catalog import FEATURES
from wflens.cli import main
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
NUMBERS = st.one_of(st.integers(0, 200), st.integers(), st.floats(), st.booleans(), st.text(max_size=3))


def jsonl(fields: dict) -> st.SearchStrategy[str]:
    """JSONL text: two lines in three are records holding some of ``fields``, the rest any text."""
    record = st.fixed_dictionaries({}, optional=fields).map(json.dumps)
    lines = st.lists(st.one_of(record, record, st.text(max_size=12)), max_size=12)
    return lines.map(lambda ls: "".join(line + "\n" for line in ls))


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


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    workflow=WORKFLOWS,
    runs=RUNS,
    manifest=MANIFEST,
    sizes=SIZES,
)
@example(
    command="reliability-metrics", workflow="on: push\n",
    runs=GOOD_RUN.replace("2023-02-01", "9999-12-31T23:59:59-05:00"), manifest="", sizes="",
)
@example(
    command="corpus-evolve", workflow="on: push\n", runs="", sizes="",
    manifest=GOOD_MANIFEST.replace("2022-01-01", "0001-01-01T00:00:00+05:00"),
)
@example(
    command="reliability-regress-features", workflow="on: push\n", runs=GOOD_RUN, manifest="",
    sizes=GOOD_SIZES.replace("}", ', "features": {"commands": {"present": true, '
                                   '"structural_only": false, "n_paths": Infinity}}}'),
)
@example(
    command="reliability-regress", workflow="on: push\n", runs=GOOD_RUN, manifest="",
    sizes=GOOD_SIZES.replace('"n_paths": 3', '"n_paths": Infinity'),
)
@example(
    command="reliability-compare", workflow="on: push\n", runs=GOOD_RUN, manifest="",
    sizes=GOOD_SIZES.replace('"n_constructs": 2', '"n_constructs": NaN'),
)
@example(
    command="reliability-regress", workflow="on: push\n", manifest="",
    runs="".join(GOOD_RUN.replace('"a"', f'"{w}"').replace('"x"', f'"{c}"') for w in "abc" for c in "xyz"),
    sizes="".join(GOOD_SIZES.replace('"a"', f'"{w}"').replace('"n_paths": 3', f'"n_paths": {n}')
                  for w, n in (("a", 1), ("b", 2), ("c", 1e20))),
)
def test_every_command_keeps_the_exit_code_contract(workdir, command, workflow, runs, manifest, sizes):
    for name, text in (("wf.yml", workflow), ("runs.jsonl", runs),
                       ("manifest.jsonl", manifest), ("sizes.jsonl", sizes)):
        (workdir / name).write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(COMMANDS[command])
    assert exit_info.value.code in (0, 1, 2, 64)


def test_out_of_range_window_keeps_the_contract(workdir):
    (workdir / "runs.jsonl").write_text(GOOD_RUN, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["reliability", "metrics", "--runs", "runs.jsonl",
              "--window", "0001-01-01T00:00:00+05:00..2023-12-31"])
    assert exit_info.value.code == 64
