"""Risk-weighted lint rules and the bundled effect-size model."""

import math

import pytest

import wflens
from wflens.abstraction import ConstructBag
from wflens.catalog import parse_construct
from wflens.lint import CAVEAT, diagnostic_to_dict, risk_model_from_data

from conftest import FIXTURES

# Effect ratios bundled with the default model, keyed by feature:
# (presence failure OR, presence commit IRR, per-path OR, per-path IRR).
FEATURE_EFFECTS = {
    "commands": (4.12, 0.85, 1.018, 1.019),
    "environment_variables": (1.84, 1.35, 1.032, 1.031),
    "step_orchestration": (1.79, 1.42, 1.023, 1.025),
    "job_orchestration": (1.66, 1.20, 1.023, 1.047),
    "matrix_strategy": (1.46, 1.16, 1.016, 1.013),
    "action_reuse": (0.72, 1.58, 1.012, 1.013),
    "permissions": (0.70, 1.42, 0.838, 1.086),
    "context": (None, 1.58, 1.099, 1.064),
    "containers": (1.58, 1.32, None, 0.391),
    "workflow_reuse": (1.49, 1.17, None, None),
}

SIZE_EFFECTS = {
    "n_paths": (1.005, 1.004),
    "n_constructs": (1.024, 1.048),
    "n_features": (1.189, 1.085),
    "path_construct_ratio": (1.13, 1.073),
}

THRESHOLDS = {
    "n_paths": (29.0, 61.0),
    "n_constructs": (12.0, 16.0),
    "n_features": (7.0, 8.0),
    "path_construct_ratio": (2.31, 4.02),
}


def bag_of(counts: dict[str, int]) -> ConstructBag:
    return ConstructBag(
        {parse_construct(s): n for s, n in counts.items()}, sum(counts.values())
    )


def metrics_of(counts, catalog):
    return wflens.workflow_metrics(bag_of(counts), catalog)


@pytest.fixture(scope="module")
def kitchen_metrics(catalog):
    text = (FIXTURES / "kitchen.yml").read_text(encoding="utf-8")
    bag = wflens.abstract_workflow(wflens.enumerate_paths(wflens.parse_workflow(text)))
    return wflens.workflow_metrics(bag, catalog)


def test_default_model_feature_table():
    model = wflens.default_risk_model()
    assert set(model.feature_effects) == set(FEATURE_EFFECTS)
    for feature, (p_or, p_irr, pp_or, pp_irr) in FEATURE_EFFECTS.items():
        effect = model.feature_effects[feature]
        assert effect.presence_or == p_or
        assert effect.presence_irr == p_irr
        assert effect.per_path_or == pp_or
        assert effect.per_path_irr == pp_irr


def test_default_model_size_table():
    model = wflens.default_risk_model()
    assert model.thresholds == THRESHOLDS
    for metric, (f_or, c_irr) in SIZE_EFFECTS.items():
        assert model.size_effects[metric].failure_or == f_or
        assert model.size_effects[metric].commits_irr == c_irr


def test_kitchen_rule_set(kitchen_metrics):
    diags, _ = wflens.evaluate(kitchen_metrics, file="kitchen.yml")
    fired = {(d.rule_id, d.severity) for d in diags}
    # All ten modelled features are used non-structurally, plus two size
    # warns (26 constructs > 16, 12 features > 8).  29 paths sits exactly
    # on t1 and stays silent.
    assert fired == {
        ("F002", "info"),  # permissions
        ("F003", "warn"),  # workflow_reuse
        ("F004", "warn"),  # job_orchestration
        ("F005", "warn"),  # containers
        ("F006", "warn"),  # matrix_strategy
        ("F007", "warn"),  # commands
        ("F009", "warn"),  # environment_variables
        ("F011", "info"),  # context
        ("F012", "info"),  # action_reuse
        ("F013", "warn"),  # step_orchestration
        ("W002", "warn"),
        ("W003", "warn"),
    }


def test_kitchen_evidence_quotes_model(kitchen_metrics):
    diags, _ = wflens.evaluate(kitchen_metrics, file="kitchen.yml")
    by_feature = {d.evidence["feature"]: d for d in diags if "feature" in d.evidence}
    assert set(by_feature) == set(FEATURE_EFFECTS)
    for feature, (p_or, p_irr, pp_or, pp_irr) in FEATURE_EFFECTS.items():
        ev = by_feature[feature].evidence
        assert ev["presence_or"] == p_or
        assert ev["presence_irr"] == p_irr
        assert ev["per_path_or"] == pp_or
        assert ev["per_path_irr"] == pp_irr
    sizes = {d.evidence["metric"]: d.evidence for d in diags if "metric" in d.evidence}
    assert sizes["n_constructs"]["thresholds"] == [12.0, 16.0]
    assert sizes["n_constructs"]["failure_or_per_unit"] == 1.024
    assert sizes["n_features"]["commits_irr_per_unit"] == 1.085


def test_kitchen_risk_products(kitchen_metrics):
    _, summary = wflens.evaluate(kitchen_metrics)
    odds = math.prod(v[0] for v in FEATURE_EFFECTS.values() if v[0] is not None)
    rate = math.prod(v[1] for v in FEATURE_EFFECTS.values() if v[1] is not None)
    assert summary.relative_failure_odds == pytest.approx(odds, rel=1e-12)
    assert summary.relative_commit_rate == pytest.approx(rate, rel=1e-12)


def test_two_feature_product(catalog):
    # commands and environment variables only; the product of their
    # presence odds ratios is 4.12 * 1.84.
    m = metrics_of({"env": 1, "jobs.<id>.steps[*].run": 1}, catalog)
    _, summary = wflens.evaluate(m)
    assert summary.relative_failure_odds == pytest.approx(7.5808, abs=1e-9)
    assert summary.relative_commit_rate == pytest.approx(1.1475, abs=1e-9)


def test_node_ci_products(node_ci_metrics):
    _, summary = wflens.evaluate(node_ci_metrics)
    assert summary.relative_failure_odds == pytest.approx(5.032556928, abs=1e-9)
    assert summary.relative_commit_rate == pytest.approx(4.1943114816, abs=1e-9)


def test_minimal_workflow_has_no_warns(catalog):
    text = (FIXTURES / "tiny.yml").read_text(encoding="utf-8")
    bag = wflens.abstract_workflow(wflens.enumerate_paths(wflens.parse_workflow(text)))
    m = wflens.workflow_metrics(bag, catalog)
    diags, summary = wflens.evaluate(m, file="tiny.yml")
    assert all(d.severity == "info" for d in diags)
    # runs-on and uses are the only modelled features in play
    assert {d.evidence["feature"] for d in diags} == {"context", "action_reuse"}
    assert summary.relative_failure_odds == pytest.approx(0.72)
    assert summary.relative_commit_rate == pytest.approx(2.4964)


MID_BAND = {
    "name": 1,
    "on": 1,
    "on.push": 1,
    "on.push.branches": 1,
    "on.push.branches[*]": 6,
    "permissions": 2,
    "env": 1,
    "env.<var>": 8,
    "jobs": 1,
    "jobs.<id>": 5,
    "jobs.<id>.runs-on": 5,
    "jobs.<id>.steps": 5,
    "jobs.<id>.steps[*]": 6,
    "jobs.<id>.steps[*].run": 5,
}


def test_mid_band_fires_all_size_infos(catalog):
    # 48 paths, 14 constructs, 8 features, ratio 48/14: every size metric
    # lands strictly inside (t1, t2].
    m = metrics_of(MID_BAND, catalog)
    assert (m.n_paths, m.n_constructs, m.n_features) == (48, 14, 8)
    diags, _ = wflens.evaluate(m, file="mid.yml")
    infos = {d.rule_id for d in diags if d.rule_id.startswith("I")}
    assert infos == {"I001", "I002", "I003", "I004"}
    band = next(d for d in diags if d.rule_id == "I001")
    assert "(29, 61]" in band.message
    assert band.evidence["value"] == 48


def test_upper_threshold_is_inclusive(catalog):
    # n_features == 8 == t2 stays an info; 9 would be a warn.
    m = metrics_of(MID_BAND, catalog)
    diags, _ = wflens.evaluate(m)
    assert not any(d.rule_id == "W003" for d in diags)


def test_oversized_workflow_warns_with_per_unit_effect(catalog):
    m = metrics_of({"env.<var>": 85}, catalog)
    diags, _ = wflens.evaluate(m, file="big.yml")
    by_id = {d.rule_id: d for d in diags}
    assert by_id["W001"].severity == "warn"
    assert "85" in by_id["W001"].message
    assert "61" in by_id["W001"].message
    assert "1.005x failure odds" in by_id["W001"].message
    assert by_id["W001"].evidence["value"] == 85.0
    # 85 paths over a single construct also blows the ratio threshold
    assert "W004" in by_id


def test_structural_only_features_are_suppressed(catalog):
    m = metrics_of(
        {"on": 1, "jobs": 1, "jobs.<id>": 1, "jobs.<id>.steps": 1, "jobs.<id>.steps[*]": 1},
        catalog,
    )
    diags, summary = wflens.evaluate(m)
    assert not any("feature" in d.evidence for d in diags)
    assert summary.relative_failure_odds == 1.0
    assert summary.relative_commit_rate == 1.0


def test_quiet_when_small_and_all_ratios_protective(catalog):
    # A model where every present feature has both ratios at or below one
    # and the workflow sits at or below every t1 yields no diagnostics.
    model = risk_model_from_data(
        {
            "version": "test",
            "size_thresholds": {"n_paths": [1000, 2000]},
            "size_effects": {},
            "feature_effects": {
                "commands": {
                    "presence_or": 0.9,
                    "presence_irr": 1.0,
                    "per_path_or": 0.95,
                    "per_path_irr": 0.99,
                }
            },
        }
    )
    m = metrics_of({"jobs.<id>.steps[*].run": 2}, catalog)
    diags, summary = wflens.evaluate(m, model=model)
    assert diags == []
    assert summary.relative_failure_odds == pytest.approx(0.9)


def test_diagnostics_sorted_by_rule_then_file(kitchen_metrics):
    diags, _ = wflens.evaluate(kitchen_metrics, file="a.yml")
    keys = [(d.rule_id, d.file) for d in diags]
    assert keys == sorted(keys)


def test_caveat_everywhere(kitchen_metrics):
    diags, summary = wflens.evaluate(kitchen_metrics)
    assert diags
    for d in diags:
        assert d.message.endswith(CAVEAT)
    assert summary.caveat == CAVEAT
    assert "not a causal" in CAVEAT


def test_diagnostic_to_dict_shape(kitchen_metrics):
    diags, _ = wflens.evaluate(kitchen_metrics, file="k.yml")
    as_dict = diagnostic_to_dict(diags[0])
    assert set(as_dict) == {"rule_id", "severity", "file", "message", "evidence"}
    assert as_dict["file"] == "k.yml"


@pytest.mark.parametrize(
    "data",
    [
        {"size_thresholds": {"bogus": [1, 2]}},
        {"size_thresholds": {"n_paths": [5, 5]}},
        {"size_thresholds": {"n_paths": [0, 5]}},
        {"size_thresholds": {"n_paths": [5]}},
        {"size_thresholds": {"n_paths": 5}},
        {"size_effects": {"bogus": {"failure_or": 1.1, "commits_irr": 1.1}}},
        {"size_effects": {"n_paths": {"failure_or": 0.0, "commits_irr": 1.1}}},
        {"size_effects": {"n_paths": {"failure_or": 1.1}}},
        {"size_effects": {"n_paths": [1.1, 1.1]}},
        {"feature_effects": {"bogus": {"presence_or": 1.1}}},
        {"feature_effects": {"commands": {"presence_or": -2.0}}},
        {"feature_effects": {"commands": [1.1]}},
        {"size_thresholds": {"n_paths": [5, float("inf")]}},
        {"size_thresholds": {"n_paths": [float("nan"), 5]}},
        {"size_thresholds": {"n_paths": [5, 10**400]}},
        {"size_effects": {"n_paths": {"failure_or": float("nan"), "commits_irr": 1.1}}},
        {"size_effects": {"n_paths": {"failure_or": 1.1, "commits_irr": float("inf")}}},
        {"feature_effects": {"commands": {"presence_or": float("nan")}}},
        {"feature_effects": {"commands": {"per_path_irr": float("inf")}}},
        {"feature_effects": {"commands": {"presence_irr": float("-inf")}}},
    ],
)
def test_model_validation_rejects(data):
    with pytest.raises(ValueError):
        risk_model_from_data(data)


def test_model_allows_absent_effect_entries():
    model = risk_model_from_data({"version": "x"})
    assert model.thresholds == {}
    assert model.feature_effects == {}
