"""Per-workflow metrics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wflens
from wflens.instants import bundled_json
from wflens.metrics import RATIO_CAP, SIZE_METRICS, metrics_to_dict, round4
from wflens.model import MAX_PATHS

from conftest import FIXTURES

# Hand-tallied per-feature usage for the two-job matrix workflow:
# (paths, constructs used, structural_only).
NODE_CI_FEATURES = {
    "naming": (1, 1, False),
    "triggers": (4, 4, False),
    "permissions": (2, 2, False),
    "job_orchestration": (4, 3, False),
    "matrix_strategy": (5, 4, False),
    "context": (2, 1, False),
    "step_orchestration": (5, 2, True),
    "action_reuse": (1, 1, False),
    "commands": (2, 1, False),
}


def test_node_ci_sizes(node_ci_metrics):
    m = node_ci_metrics
    assert m.n_paths == 26
    assert m.n_constructs == 19
    assert m.n_features == 9
    assert m.path_construct_ratio == 26 / 19
    assert round4(m.path_construct_ratio) == 1.3684
    assert m.unknown_constructs == ()


def test_node_ci_feature_usage(node_ci_metrics):
    for feature, (n_paths, used, structural_only) in NODE_CI_FEATURES.items():
        usage = node_ci_metrics.per_feature[feature]
        assert usage.present, feature
        assert usage.n_paths == n_paths, feature
        assert usage.n_constructs_used == used, feature
        assert usage.structural_only is structural_only, feature
    absent = set(wflens.FEATURES) - set(NODE_CI_FEATURES)
    for feature in absent:
        usage = node_ci_metrics.per_feature[feature]
        assert not usage.present
        assert usage.n_paths == 0
        assert usage.path_to_construct_ratio is None


def test_feature_path_totals_cover_all_paths(node_ci_metrics):
    total = sum(u.n_paths for u in node_ci_metrics.per_feature.values())
    assert total == 26  # every path classified, none unknown


def test_permissions_coverage(node_ci_metrics):
    usage = node_ci_metrics.per_feature["permissions"]
    assert usage.construct_coverage == 2 / 30
    assert round4(usage.construct_coverage) == 0.0667


def test_ratios_are_quotients(node_ci_metrics):
    usage = node_ci_metrics.per_feature["step_orchestration"]
    assert usage.path_to_construct_ratio == 2.5
    assert usage.capped_ratio == 2.5


@settings(max_examples=500)
@given(st.integers(0, MAX_PATHS), st.integers(1, MAX_PATHS))
def test_quotients_round_like_exact_fractions(numerator, denominator):
    exact = Fraction(numerator, denominator)
    assert numerator / denominator == float(exact)
    assert min(numerator / denominator, RATIO_CAP) == float(min(exact, Fraction(10)))
    assert round4(numerator / denominator) == round(float(exact), 4)


def _bag_of(path_texts: list[str]):
    ruleset = wflens.default_ruleset()
    return wflens.abstract_workflow([wflens.parse_path(p) for p in path_texts], ruleset)


def test_repetition_ratio(catalog):
    bag = _bag_of([f"jobs.a.steps[{i}].uses" for i in range(5)])
    usage = wflens.workflow_metrics(bag, catalog).per_feature["action_reuse"]
    assert usage.path_to_construct_ratio == 5.0
    assert usage.construct_coverage == 1 / 3


def test_ratio_cap(catalog):
    bag = _bag_of([f"jobs.a.steps[{i}].uses" for i in range(25)])
    usage = wflens.workflow_metrics(bag, catalog).per_feature["action_reuse"]
    assert usage.path_to_construct_ratio == 25.0
    assert usage.capped_ratio == RATIO_CAP == 10.0


def test_unknown_constructs_count_toward_sizes(catalog):
    bag = _bag_of(["on", "jobs", "jobs.a", "jobs.a.zzz-unknown"])
    m = wflens.workflow_metrics(bag, catalog)
    assert m.n_paths == 4
    assert m.n_constructs == 4
    assert [wflens.render_construct(c) for c in m.unknown_constructs] == ["jobs.<id>.zzz-unknown"]
    assert sum(u.n_paths for u in m.per_feature.values()) == 3


def test_structural_only_flag(catalog):
    bag = _bag_of(["on", "jobs", "jobs.a", "jobs.a.steps", "jobs.a.steps[0]", "jobs.a.steps[0].run"])
    m = wflens.workflow_metrics(bag, catalog)
    assert m.per_feature["step_orchestration"].structural_only
    assert m.per_feature["job_orchestration"].structural_only
    assert m.per_feature["triggers"].structural_only  # bare "on" with no events
    assert not m.per_feature["commands"].structural_only


def test_size_metric_accessor(node_ci_metrics):
    values = [node_ci_metrics.size_metric(name) for name in SIZE_METRICS]
    assert values == [26.0, 19.0, 9.0, pytest.approx(26 / 19)]
    with pytest.raises(KeyError):
        node_ci_metrics.size_metric("bogus")


def test_empty_bag_rejected(catalog):
    from wflens.abstraction import ConstructBag

    with pytest.raises(ValueError):
        wflens.workflow_metrics(ConstructBag({}, 0), catalog)


def test_metrics_to_dict_serializes_all_features(node_ci_metrics):
    data = metrics_to_dict(node_ci_metrics)
    assert data["n_paths"] == 26
    assert data["path_construct_ratio"] == 1.3684
    assert set(data["features"]) == set(wflens.FEATURES)
    assert data["features"]["permissions"]["construct_coverage"] == 0.0667
    assert data["features"]["deployment"]["path_to_construct_ratio"] is None
    assert data["unknown_constructs"] == []


def test_round4():
    assert round4(None) is None
    assert round4(26 / 19) == 1.3684
    assert round4(1 / 3) == 0.3333


def test_reference_chain_leaves_the_scan_index_uncompiled():
    # The scan kernel is tested against this chain, so the chain must not use the kernel's index.
    catalog = wflens.catalog_from_data(bundled_json("catalog.json"))
    text = (FIXTURES / "kitchen.yml").read_text(encoding="utf-8")
    paths = wflens.enumerate_paths(wflens.parse_workflow(text))
    bag = wflens.abstract_workflow(paths, catalog.rules)
    wflens.validate_workflow(bag, catalog, paths)
    metrics = wflens.workflow_metrics(bag, catalog)
    assert "index" not in vars(catalog)
    assert wflens.scan_text(text, "kitchen.yml", catalog).metrics == metrics
    assert "index" in vars(catalog)
