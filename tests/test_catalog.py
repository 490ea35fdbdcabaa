"""Construct catalog: composition checks, classification, extraction."""

import dataclasses
import json

import pytest
from click.testing import CliRunner

import wflens
from wflens.catalog import (
    EXPECTED_FEATURE_COUNTS,
    EXPECTED_LEVEL_COUNTS,
    EXPECTED_TOTAL,
    UNCLASSIFIED,
    Catalog,
)
from wflens.cli import cli

from conftest import FIXTURES

# Published per-feature construct counts.
TABLE_COUNTS = {
    "triggers": 85,
    "permissions": 30,
    "workflow_reuse": 14,
    "job_orchestration": 12,
    "containers": 9,
    "matrix_strategy": 8,
    "commands": 7,
    "services": 7,
    "environment_variables": 6,
    "naming": 5,
    "context": 5,
    "action_reuse": 3,
    "step_orchestration": 3,
    "deployment": 3,
}


def test_expected_composition_constants():
    assert EXPECTED_TOTAL == 197
    assert EXPECTED_LEVEL_COUNTS == {"workflow": 119, "job": 65, "step": 13}
    assert EXPECTED_FEATURE_COUNTS == TABLE_COUNTS
    assert sum(TABLE_COUNTS.values()) == 197


def test_default_catalog_validates(catalog):
    report = wflens.validate_catalog(catalog)
    assert report.ok, report.failures()


def test_default_catalog_counts(catalog):
    assert len(catalog.entries) == 197
    assert catalog.level_sizes() == {"workflow": 119, "job": 65, "step": 13}
    assert catalog.feature_sizes() == TABLE_COUNTS


def test_validation_reports_deltas(catalog):
    victim = wflens.parse_construct("jobs.<id>.steps[*].uses")
    entries = {c: e for c, e in catalog.entries.items() if c != victim}
    broken = Catalog(version=catalog.version, entries=entries, rules=catalog.rules)
    report = wflens.validate_catalog(broken)
    assert not report.ok
    failures = "\n".join(report.failures())
    assert "total constructs" in failures
    assert "196" in failures and "197" in failures


@pytest.mark.parametrize(
    "construct,feature",
    [
        ("on", "triggers"),
        ("on.push.branches[*]", "triggers"),
        ("permissions.contents", "permissions"),
        ("on.workflow_call.inputs.<id>", "workflow_reuse"),
        ("jobs.<id>.needs", "job_orchestration"),
        ("jobs.<id>.container.image", "containers"),
        ("jobs.<id>.strategy.matrix.<var>", "matrix_strategy"),
        ("jobs.<id>.steps[*].run", "commands"),
        ("jobs.<id>.services.<s_id>", "services"),
        ("env.<var>", "environment_variables"),
        ("name", "naming"),
        ("jobs.<id>.steps[*].uses", "action_reuse"),
        ("jobs.<id>.environment", "deployment"),
    ],
)
def test_classify_known(catalog, construct, feature):
    assert wflens.classify(wflens.parse_construct(construct), catalog) == feature


def test_classify_unknown(catalog):
    construct = wflens.parse_construct("jobs.<id>.made-up-key")
    assert wflens.classify(construct, catalog) == "unknown"


@pytest.mark.parametrize(
    "construct,level",
    [
        ("name", "workflow"),
        ("on.push.branches[*]", "workflow"),
        ("jobs", "workflow"),
        ("jobs.<id>", "job"),
        ("jobs.<id>.steps", "job"),
        ("jobs.<id>.steps[*]", "job"),
        ("jobs.<id>.steps[*].uses", "step"),
        ("jobs.<id>.steps[*].with.<param>", "step"),
    ],
)
def test_level_rule(construct, level):
    assert wflens.level_of(wflens.parse_construct(construct)) == level


def test_entry_levels_follow_rule(catalog):
    for construct, entry in catalog.entries.items():
        assert entry.level == wflens.level_of(construct)


def test_structural_constructs(catalog):
    structural = {
        wflens.render_construct(c) for c, e in catalog.entries.items() if e.structural
    }
    assert structural == {"on", "jobs", "jobs.<id>", "jobs.<id>.steps", "jobs.<id>.steps[*]"}


def test_deprecated_scope_present_at_both_levels(catalog):
    deprecated = {
        wflens.render_construct(c) for c, e in catalog.entries.items() if e.status == "deprecated"
    }
    assert deprecated == {
        "permissions.repository-projects",
        "jobs.<id>.permissions.repository-projects",
    }


def test_published_strings_present(catalog):
    published = {
        wflens.render_construct(c)
        for c, e in catalog.entries.items()
        if e.provenance == "published"
    }
    for text in (
        "jobs.<id>.steps[*].uses",
        "jobs.<id>.strategy.matrix.<var>",
        "permissions.contents",
        "on.push.branches[*]",
        "defaults.run.shell",
    ):
        assert text in published
    assert len(published) == 23


def test_validate_workflow_all_known(catalog, node_ci_bag, node_ci_paths):
    report = wflens.validate_workflow(node_ci_bag, catalog, node_ci_paths)
    assert report.is_language_valid
    assert len(report.known) == 19
    assert report.unknown == ()


def test_validate_workflow_flags_unknown(catalog, ruleset):
    paths = [wflens.parse_path(p) for p in ("on", "jobs", "jobs.a", "jobs.a.fancy-new-key")]
    bag = wflens.abstract_workflow(paths, ruleset)
    report = wflens.validate_workflow(bag, catalog, paths)
    assert not report.is_language_valid
    (construct, example), = report.unknown
    assert wflens.render_construct(construct) == "jobs.<id>.fancy-new-key"
    assert wflens.render_path(example) == "jobs.a.fancy-new-key"


def test_extract_catalog_from_observation(catalog, node_ci_bag):
    extracted = wflens.extract_catalog([node_ci_bag], rules=catalog.rules)
    assert len(extracted.entries) == 19
    for construct, entry in extracted.entries.items():
        assert entry.feature == UNCLASSIFIED
        assert entry.provenance == "extracted"
        assert construct in catalog.entries


def test_data_round_trip(catalog):
    data = wflens.catalog_to_data(catalog)
    again = wflens.catalog_from_data(data)
    assert again.entries == catalog.entries
    assert wflens.catalog_to_data(again) == data


def test_load_catalog_file(tmp_path, catalog):
    target = tmp_path / "cat.json"
    target.write_text(json.dumps(wflens.catalog_to_data(catalog)), encoding="utf-8")
    loaded = wflens.load_catalog(target)
    assert loaded.entries == catalog.entries


@pytest.mark.parametrize("structural", ["false", "true", 0, 1, None, []])
def test_structural_must_be_a_json_boolean(tmp_path, catalog, structural):
    """``"structural": "false"`` would make ``commands`` structural-only and hide lint's F007."""
    data = wflens.catalog_to_data(catalog)
    entry = next(e for e in data["constructs"] if e["construct"] == "jobs.<id>.steps[*].run")
    entry["structural"] = structural
    message = r"^structural must be true or false, not .*, for jobs\.<id>\.steps\[\*\]\.run$"
    with pytest.raises(ValueError, match=message):
        wflens.catalog_from_data(data)
    target = tmp_path / "cat.json"
    target.write_text(json.dumps(data), encoding="utf-8")
    result = CliRunner().invoke(cli, ["lint", "--catalog", str(target), str(FIXTURES / "kitchen.yml")])
    assert result.exit_code == 2
    assert result.output.startswith(f"Error: cannot load catalog {target}: structural must be true or false")


def test_entries_are_frozen(catalog):
    entry = next(iter(catalog.entries.values()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.feature = "naming"
