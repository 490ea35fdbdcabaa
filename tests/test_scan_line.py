"""scan_line writes exactly json.dumps(scan_record(r), sort_keys=True) for every scan result."""

import importlib.util
import json
import math
from pathlib import Path

import pytest
import yaml

import wflens
from wflens import model, scan
from wflens.metrics import FeatureUsage, WorkflowMetrics
from wflens.scan import ScanResult, scan_file, scan_line, scan_record, scan_text

from conftest import FIXTURES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference(result: ScanResult) -> str:
    return json.dumps(scan_record(result), sort_keys=True)


def assert_lines_match(results) -> None:
    for result in results:
        assert scan_line(result) == reference(result), result.file


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(model, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(model, "_UNCHECKED_NESTING", model.MAX_DEPTH)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    return request.param


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> list[Path]:
    """``bench/gen_corpus.py`` seeds 1-2 of both shapes, 3% malformed."""
    spec = importlib.util.spec_from_file_location("gen_corpus", BENCH / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    root = tmp_path_factory.mktemp("generated")
    files = []
    for seed in (1, 2):
        for shape, n, tiny in (("mixed", 64, False), ("tiny", 400, True)):
            out = root / f"{shape}{seed}"
            gen_corpus.generate_corpus(out, n, seed, tiny=tiny, malformed_rate=0.03)
            files.extend(root / name for name in wflens.discover_workflow_files(out))
    return files


def test_fixture_files(loader):
    files = sorted(p for p in FIXTURES.rglob("*") if p.suffix in (".yml", ".yaml"))
    assert len(files) > 5
    assert_lines_match(scan_file(p) for p in files)


def test_generated_corpora(loader, generated):
    results = [scan_file(p) for p in generated]
    assert sum(not r.parsed for r in results) > 0
    assert sum(bool(r.metrics and r.metrics.unknown_constructs) for r in results) > 0
    assert_lines_match(results)


WORKFLOW = "on: push\njobs:\n  build:\n    runs-on: ubuntu-latest\n    steps:\n      - run: make\n"


@pytest.mark.parametrize(
    "text",
    [
        WORKFLOW,
        WORKFLOW + "    colour: 日本\n    été: [1, 2]\n",  # unknown, non-ASCII keys
        'on: push\n"\\u2028\\"\\\\": 1\n',  # a key JSON must escape
        "on: [push\n",  # parse failure with a mark
        "",  # empty
        "- a\n- b\n",  # not a mapping
        "on: push\non: pull_request\n",  # duplicate key
    ],
)
@pytest.mark.parametrize("file", ["w.yml", "café.yml", "bad\udcff\udcfe.yml", 'q"\\ .yml'])
def test_texts_and_file_names(loader, text, file):
    assert_lines_match([scan_text(text, file)])


def test_unreadable_files(tmp_path):
    (tmp_path / "latin.yml").write_bytes(b"on: push\nname: \xff\n")
    paths = [tmp_path / "missing.yml", tmp_path, tmp_path / "latin.yml"]
    results = [scan_file(p) for p in paths]
    assert not any(r.parsed for r in results)
    assert_lines_match(results)


def with_usages(usages: list[FeatureUsage], file: str = "hand.yml") -> ScanResult:
    """A parsed result whose features take ``usages`` in turn."""
    per_feature = {feature: usages[i % len(usages)] for i, feature in enumerate(wflens.FEATURES)}
    metrics = WorkflowMetrics(4, 3, len(usages), 4 / 3, per_feature, ())
    return ScanResult(file, None, None, metrics)


BASE = dict(
    present=True,
    n_paths=3,
    n_constructs_used=2,
    construct_coverage=0.5,
    path_to_construct_ratio=1.5,
    capped_ratio=1.5,
    structural_only=False,
)
# Each value compares equal to BASE's, or to another value here, yet json writes it apart.
TWINS = [
    {"present": 1},
    {"present": 1.0},
    {"n_paths": 3.0},
    {"n_paths": True, "n_constructs_used": 1},
    {"n_constructs_used": True},
    {"construct_coverage": 1, "path_to_construct_ratio": 1.0},
    {"construct_coverage": True},
    {"construct_coverage": 0.0},
    {"construct_coverage": -0.0},
    {"path_to_construct_ratio": 0.0, "capped_ratio": 0.0},
    {"path_to_construct_ratio": -0.0, "capped_ratio": -0.0},
    {"capped_ratio": None, "path_to_construct_ratio": None},
    {"capped_ratio": math.nan},
    {"capped_ratio": math.inf},
    {"structural_only": 0},
    {"structural_only": 0.0},
    {"present": False, "n_paths": 0},
    {"present": 0, "n_paths": 0},
]


def test_equal_but_differently_typed_usages_write_apart():
    scan._tallied_usage_json.cache_clear()
    usages = [FeatureUsage(**BASE)] + [FeatureUsage(**{**BASE, **twin}) for twin in TWINS]
    results = [with_usages([usage]) for usage in usages]
    assert len(set(usages)) < len({scan_line(r) for r in results}) == len(results)
    assert_lines_match(results)
    assert_lines_match(results[::-1])


def test_cache_stays_bounded():
    scan._tallied_usage_json.cache_clear()
    results = []
    for i in range(scan.CACHED_USAGES // len(wflens.FEATURES) + 10):
        usages = [
            FeatureUsage(True, 1 + i, 1 + j, (1 + j) / 97, (1 + i) / (1 + j), min((1 + i) / (1 + j), 10.0), j % 2 == 0)
            for j in range(len(wflens.FEATURES))
        ]
        results.append(with_usages(usages, f"w{i}.yml"))
    assert len({u for r in results for u in r.metrics.per_feature.values()}) > scan.CACHED_USAGES
    for _ in range(2):  # the second pass reads texts the first evicted
        assert_lines_match(results)
        assert scan._tallied_usage_json.cache_info().currsize == scan.CACHED_USAGES
