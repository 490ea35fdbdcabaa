"""End-to-end CLI behaviour: outputs, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import wflens
from wflens.cli import cli, main

from conftest import FIXTURES, build_reliability_files

CORPUS = str(FIXTURES / "corpus")
MANIFEST = str(FIXTURES / "history" / "manifest.jsonl")
RUNS = str(FIXTURES / "runs_semantics.jsonl")
WINDOW = "2023-01-01..2023-04-11"


def invoke(args):
    return CliRunner().invoke(cli, args)


def run_main(args):
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    return excinfo.value.code


@pytest.fixture(scope="module")
def clienv(tmp_path_factory):
    """Synthetic sizes and runs files shared by the reliability commands."""
    root = tmp_path_factory.mktemp("clienv")
    sizes_path, runs_path = build_reliability_files(root)

    tampered = root / "catalog_minus_one.json"
    data = json.loads(invoke(["catalog", "extract", CORPUS]).output)
    tampered.write_text(json.dumps(data), encoding="utf-8")

    return {"sizes": str(sizes_path), "runs": str(runs_path), "tampered": str(tampered)}


# ------------------------------------------------------------------- scan


def test_scan_json_records_sorted():
    result = invoke(["scan", CORPUS])
    assert result.exit_code == 0
    records = json.loads(result.output)
    files = [r["file"] for r in records]
    assert files == sorted(files)
    assert [f.rsplit("/", 1)[-1] for f in files] == ["ci.yml", "release.yml", "tiny.yml"]
    by_name = {f.rsplit("/", 1)[-1]: r for f, r in zip(files, records)}
    assert by_name["ci.yml"]["n_paths"] == 26
    assert by_name["ci.yml"]["n_constructs"] == 19
    assert by_name["tiny.yml"]["n_paths"] == 8
    assert by_name["release.yml"]["n_paths"] == 33
    assert all(r["valid"] for r in records)


def test_scan_text_format():
    result = invoke(["scan", "--format", "text", str(FIXTURES / "node_ci.yml")])
    assert result.exit_code == 0
    assert "paths=26 constructs=19 features=9" in result.output


def test_scan_parse_failure_exits_2():
    result = invoke(["scan", str(FIXTURES / "broken.yml"), "--format", "jsonl"])
    assert result.exit_code == 2
    record = json.loads(result.output.splitlines()[0])
    assert record["valid"] is False
    assert record["error"]["line"] == 2


def test_scan_parsed_file_with_unknown_construct_is_not_valid(tmp_path):
    workflow = tmp_path / "odd.yml"
    workflow.write_text("on: push\nfrobnicate: 1\njobs:\n  b:\n    runs-on: x\n", encoding="utf-8")
    result = invoke(["scan", "--format", "jsonl", str(workflow)])
    assert result.exit_code == 0, result.output
    (record,) = [json.loads(line) for line in result.output.splitlines()]
    assert record["valid"] is False
    assert "error" not in record
    assert record["unknown_constructs"] == ["frobnicate"]


def test_scan_mixed_good_and_bad_still_reports_both():
    result = invoke(["scan", str(FIXTURES / "tiny.yml"), str(FIXTURES / "broken.yml")])
    assert result.exit_code == 2
    records = json.loads(result.output)
    assert len(records) == 2
    assert {r["valid"] for r in records} == {True, False}


# ------------------------------------------------------------------- lint


def test_lint_warn_exits_1():
    result = invoke(["lint", str(FIXTURES / "kitchen.yml")])
    assert result.exit_code == 1
    assert "W002 warn" in result.output
    assert "relative failure odds 39.0214" in result.output
    assert "relative commit rate 12.4177" in result.output


def test_lint_clean_workflow_exits_0():
    result = invoke(["lint", str(FIXTURES / "tiny.yml")])
    assert result.exit_code == 0
    assert "warn" not in result.output.replace("warns", "")
    assert "relative failure odds 0.72" in result.output


def test_lint_parse_failure_exits_2():
    result = invoke(["lint", str(FIXTURES / "broken.yml")])
    assert result.exit_code == 2


NO_PARSE = "Error: no workflow files could be parsed\n"


@pytest.mark.parametrize(
    "command, stdout, error",
    [
        (["lint"], "", ""),
        (["lint", "--format", "json"], '{\n  "diagnostics": [],\n  "risk": {}\n}\n', ""),
        (["catalog", "extract"], "", NO_PARSE),
        (["corpus", "stats"], "", NO_PARSE),
    ],
)
def test_no_parsed_file_exits_2(command, stdout, error):
    broken = str(FIXTURES / "broken.yml")
    result = invoke([*command, broken, broken])
    assert result.exit_code == 2
    assert result.stdout == stdout
    head = result.stderr.splitlines(keepends=True)[:2]
    assert head[0] == head[1] and head[0].startswith(f"{broken}: ")
    assert result.stderr == "".join(head) + error


def test_lint_json_format():
    result = invoke(["lint", "--format", "json", str(FIXTURES / "kitchen.yml")])
    data = json.loads(result.output)
    assert {d["rule_id"] for d in data["diagnostics"]} >= {"W002", "W003", "F007"}
    risk = next(iter(data["risk"].values()))
    assert risk["relative_failure_odds"] == pytest.approx(39.0214)
    assert "not a causal" in risk["caveat"]


# ---------------------------------------------------------------- catalog


def test_catalog_validate_default_ok():
    result = invoke(["catalog", "validate"])
    assert result.exit_code == 0
    assert "ok total constructs: 197" in result.output
    assert "FAIL" not in result.output


def test_catalog_validate_partial_catalog_fails(clienv):
    result = invoke(["catalog", "validate", "--catalog", clienv["tampered"]])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_catalog_classify_output():
    result = invoke(["catalog", "classify", "jobs.<id>.strategy"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "construct": "jobs.<id>.strategy",
        "feature": "matrix_strategy",
        "known": True,
        "level": "job",
    }


def test_catalog_classify_unknown_construct():
    result = invoke(["catalog", "classify", "jobs.<id>.fancy-new-key"])
    data = json.loads(result.output)
    assert data["known"] is False


def test_catalog_extract_covers_observed_constructs():
    result = invoke(["catalog", "extract", CORPUS])
    assert result.exit_code == 0
    data = json.loads(result.output)
    constructs = {e["construct"] for e in data["constructs"]}
    assert "jobs.<id>.steps[*].run" in constructs
    assert "on.workflow_dispatch.inputs.<id>" in constructs
    assert all(e["provenance"] == "extracted" for e in data["constructs"])


# ----------------------------------------------------------------- corpus


def test_corpus_stats_totals():
    result = invoke(["corpus", "stats", CORPUS])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["n_workflows"] == 3
    sizes = data["distributions"]["n_paths"]
    assert (sizes["min"], sizes["median"], sizes["max"]) == (8, 26, 33)


def test_corpus_evolve_csv_hand_values():
    result = invoke(
        ["corpus", "evolve", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05"]
    )
    assert result.exit_code == 0
    assert result.output == (
        "month,n,mean,median,q1,q3\n"
        "2023-01,0,,,,\n"
        "2023-02,1,8,8,8,8\n"
        "2023-03,2,17,17,12.5,21.5\n"
        "2023-04,2,17,17,12.5,21.5\n"
        "2023-05,1,8,8,8,8\n"
    )


def test_corpus_evolve_usage_metric():
    result = invoke(
        [
            "corpus", "evolve", "--manifest", MANIFEST,
            "--from", "2023-02", "--to", "2023-03",
            "--metric", "usage:matrix_strategy", "--format", "json",
        ]
    )
    data = json.loads(result.output)
    assert data["metric"] == "usage:matrix_strategy"
    # tiny.yml has no matrix; node_ci does, so the mean doubles as a share
    assert [p["mean"] for p in data["points"]] == [0.0, 0.5]


def test_corpus_trend_flat_series():
    result = invoke(
        ["corpus", "trend", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05"]
    )
    data = json.loads(result.output)
    assert data["n"] == 4
    assert data["statistic"] == 0.0
    assert data["tau"] == 0.0
    assert data["trend"] == "no trend"


def test_corpus_trend_too_few_months_exits_2():
    result = invoke(
        ["corpus", "trend", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-04"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "start, end, message",
    [
        ("2023-13", "2023-05", "month must be in 1..12"),
        ("2023", "2023-05", "month must look like YYYY-MM, not '2023'"),
        ("2023-01", "99999-01", "year 99999 is out of range"),
        ("2023-01", "99999999999999999999-01", "is out of range"),
        ("2023-05", "2023-01", "month range 2023-05..2023-01 is reversed"),
    ],
    ids=["month-13", "no-month", "year-99999", "year-past-c-long", "reversed"],
)
@pytest.mark.parametrize("command", ["evolve", "trend"])
def test_bad_month_range_is_a_usage_error_before_the_manifest_is_read(
    tmp_path, capsys, command, start, end, message
):
    bad = tmp_path / "manifest.jsonl"
    bad.write_text((FIXTURES / "history" / "manifest.jsonl").read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    for manifest in (MANIFEST, str(bad)):
        args = ["corpus", command, "--manifest", manifest, "--from", start, "--to", end]
        assert run_main(args) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err and "Traceback" not in err


# ------------------------------------------------------------ reliability


def test_reliability_metrics_headline_values():
    result = invoke(["reliability", "metrics", "--runs", RUNS, "--window", WINDOW])
    assert result.exit_code == 0
    rows = {r["workflow_id"]: r for r in map(json.loads, result.output.splitlines())}
    assert rows["ttr20"]["ttr_seconds"] == 20 * 86400.0
    assert rows["avail70"]["availability"] == 0.7
    assert rows["halffail"]["failure_rate"] == 0.5
    assert rows["norecovery"]["ttr_seconds"] is None
    assert list(rows) == sorted(rows)


def test_reliability_compare_grid(clienv):
    result = invoke(
        [
            "reliability", "compare",
            "--runs", clienv["runs"], "--sizes", clienv["sizes"],
            "--window", "2023-01-01..2023-12-31",
        ]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["cells"]) == 16
    cell = next(
        c
        for c in data["cells"]
        if c["size_metric"] == "n_paths" and c["outcome"] == "failure_rate"
    )
    assert cell["delta"] > 0
    assert cell["p_adjusted"] >= cell["p_raw"]


def test_reliability_compare_size_filter(clienv):
    result = invoke(
        [
            "reliability", "compare",
            "--runs", clienv["runs"], "--sizes", clienv["sizes"],
            "--window", "2023-01-01..2023-12-31", "--size", "n_features",
        ]
    )
    data = json.loads(result.output)
    assert len(data["cells"]) == 4
    assert {c["size_metric"] for c in data["cells"]} == {"n_features"}


def test_reliability_regress_sizes(clienv):
    result = invoke(
        [
            "reliability", "regress",
            "--runs", clienv["runs"], "--sizes", clienv["sizes"],
            "--window", "2023-01-01..2023-12-31",
        ]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["analysis"] == "sizes"
    assert len(data["rows"]) == 8  # 4 size metrics x 2 outcomes
    fail_row = next(
        r for r in data["rows"] if r["predictor"] == "n_paths" and r["outcome"] == "failure_rate"
    )
    assert fail_row["ratio"] > 1.0
    assert fail_row["ci_low"] <= fail_row["ratio"] <= fail_row["ci_high"]


def test_reliability_regress_features(clienv):
    result = invoke(
        [
            "reliability", "regress",
            "--runs", clienv["runs"], "--sizes", clienv["sizes"],
            "--window", "2023-01-01..2023-12-31",
            "--analysis", "features", "--features", "commands",
        ]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert {r["predictor"] for r in data["rows"]} == {"commands"}
    assert {r["analysis"] for r in data["rows"]} == {"presence", "per_path"}


@pytest.mark.parametrize("analysis", ["sizes", "features"])
def test_reliability_regress_min_runs_zero_skips_workflows_without_runs(clienv, analysis):
    # a window holding only some workflows' runs leaves the rest with no counted run
    args = ["reliability", "regress", "--runs", clienv["runs"], "--sizes", clienv["sizes"]]
    args += ["--window", "2023-01-01..2023-02-28", "--analysis", analysis]
    zero = invoke([*args, "--min-runs", "0"])
    assert zero.exit_code == 0, zero.output
    assert zero.output == invoke([*args, "--min-runs", "1"]).output
    assert json.loads(zero.output)["rows"]


def test_scan_jsonl_feeds_reliability(tmp_path):
    scan_result = invoke(["scan", CORPUS, "--format", "jsonl"])
    assert scan_result.exit_code == 0
    sizes = tmp_path / "sizes.jsonl"
    sizes.write_text(scan_result.output, encoding="utf-8")
    ids = [json.loads(line)["file"] for line in scan_result.output.splitlines()]
    assert len(ids) == 3

    plans = {"ci.yml": 2, "release.yml": 4, "tiny.yml": 0}  # failures out of 6
    lines = []
    for wid in ids:
        n_fail = plans[wid.rsplit("/", 1)[-1]]
        for j in range(6):
            lines.append(
                json.dumps(
                    {
                        "workflow_id": wid,
                        "commit_sha": f"{wid}@{j}",
                        "committed_at": f"2023-0{1 + j}-15T00:00:00Z",
                        "conclusion": "failure" if j < n_fail else "success",
                    }
                )
            )
    runs = tmp_path / "runs.jsonl"
    runs.write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = invoke(
        [
            "reliability", "compare",
            "--runs", str(runs), "--sizes", str(sizes),
            "--window", "2023-01-01..2023-12-31",
        ]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    cell = next(
        c
        for c in data["cells"]
        if c["size_metric"] == "n_paths" and c["outcome"] == "failure_rate"
    )
    # tiny (8 paths) never fails; release (33 paths) fails most
    assert cell["n_small"] == 1 and cell["n_large"] == 1
    assert cell["delta"] == 1.0


# ------------------------------------------------------------- exit codes


def test_main_success_exits_0():
    assert run_main(["catalog", "validate"]) == 0


def test_main_usage_errors_exit_64():
    assert run_main(["corpus", "evolve", "--manifest", MANIFEST, "--from", "2023-01"]) == 64
    assert (
        run_main(
            [
                "corpus", "evolve", "--manifest", MANIFEST,
                "--from", "2023-01", "--to", "2023-03", "--metric", "bogus",
            ]
        )
        == 64
    )
    assert run_main(["catalog", "classify", "jobs.["]) == 64
    assert run_main(["scan", "--no-such-flag", CORPUS]) == 64
    assert (
        run_main(["reliability", "metrics", "--runs", RUNS, "--window", "2023-01-01"]) == 64
    )


def test_main_maps_data_exits():
    assert run_main(["lint", str(FIXTURES / "kitchen.yml")]) == 1
    assert run_main(["scan", str(FIXTURES / "broken.yml")]) == 2
    assert run_main(["lint", str(FIXTURES / "tiny.yml")]) == 0


def test_empty_runs_file_exits_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    result = invoke(["reliability", "metrics", "--runs", str(empty), "--window", WINDOW])
    assert result.exit_code == 2


def test_bad_sizes_json_exits_2(tmp_path, clienv):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    result = invoke(
        [
            "reliability", "compare",
            "--runs", clienv["runs"], "--sizes", str(bad),
            "--window", "2023-01-01..2023-12-31",
        ]
    )
    assert result.exit_code == 2


def test_undecodable_sizes_file_exits_2(tmp_path, clienv):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe\n")
    result = invoke(
        [
            "reliability", "compare",
            "--runs", clienv["runs"], "--sizes", str(bad),
            "--window", "2023-01-01..2023-12-31",
        ]
    )
    assert result.exit_code == 2
    assert "cannot read sizes file" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["reliability", "metrics", "--window", WINDOW, "--runs"], "cannot read runs file"),
        (["reliability", "regress", "--window", WINDOW, "--sizes", "{sizes}", "--runs"],
         "cannot read runs file"),
        (["corpus", "evolve", "--from", "2023-01", "--to", "2023-05", "--manifest"],
         "cannot read manifest"),
        (["corpus", "trend", "--from", "2023-01", "--to", "2023-05", "--manifest"],
         "cannot read manifest"),
    ],
    ids=["metrics-runs", "regress-runs", "evolve-manifest", "trend-manifest"],
)
def test_undecodable_runs_and_manifest_files_exit_2_naming_the_file(
    tmp_path, clienv, capsys, args, message
):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"a": 1}\n\xff\xfe\n')
    args = [a.format(**clienv) for a in args]
    assert run_main([*args, str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"Error: {message} {bad}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


def _sizes_record(workflow_id, **overrides):
    record = {
        "file": workflow_id, "valid": True, "n_paths": 10, "n_constructs": 5,
        "n_features": 2, "path_construct_ratio": 2.0, "features": {},
    }
    record.update(overrides)
    return {k: v for k, v in record.items() if v is not None}


@pytest.mark.parametrize(
    "bad_record, reason",
    [
        (_sizes_record("repo/b.yml", n_constructs=None), "lacks 'n_constructs'"),
        (_sizes_record("repo/b.yml", n_paths="many"), "bad scan record"),
        (_sizes_record("repo/a.yml"), "duplicate workflow_id 'repo/a.yml'"),
    ],
    ids=["missing-size", "non-numeric-size", "duplicate-id"],
)
def test_malformed_sizes_record_exits_2_with_line(tmp_path, clienv, bad_record, reason):
    sizes = tmp_path / "sizes.jsonl"
    lines = [_sizes_record("repo/a.yml"), {"file": "repo/x.yml", "error": {}}, bad_record]
    sizes.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    for command in (["compare"], ["regress"], ["regress", "--analysis", "features"]):
        result = invoke(
            [
                "reliability", *command,
                "--runs", clienv["runs"], "--sizes", str(sizes),
                "--window", "2023-01-01..2023-12-31",
            ]
        )
        assert result.exit_code == 2, result.output
        assert f"{sizes}:3: " in result.output
        assert reason in result.output
        assert "Traceback" not in result.output


def test_undecodable_workflow_exits_2(tmp_path):
    bad = tmp_path / "bad.yml"
    bad.write_bytes(b"name: \xff\xfe\n")
    good = tmp_path / "good.yml"
    good.write_text("on: push\n", encoding="utf-8")
    result = invoke(["scan", "--format", "jsonl", str(bad), str(good)])
    assert result.exit_code == 2
    records = [json.loads(line) for line in result.output.splitlines()]
    assert records[0]["error"]["message"].startswith("cannot decode file as UTF-8: ")
    assert records[0]["error"]["line"] is None
    assert records[1]["n_paths"] == 1
    assert invoke(["lint", str(bad)]).exit_code == 2
    with pytest.raises(wflens.WorkflowParseError, match="cannot decode"):
        wflens.parse_workflow_file(bad)


def test_numeric_commit_instant_exits_2_with_line(tmp_path):
    run = {"workflow_id": "a", "commit_sha": "x", "committed_at": "2023-01-02T00:00:00Z",
           "conclusion": "success"}
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps(run) + "\n" + json.dumps(dict(run, committed_at=5)) + "\n",
                    encoding="utf-8")
    result = invoke(["reliability", "metrics", "--runs", str(runs), "--window", WINDOW])
    assert result.exit_code == 2, result.output
    assert f"{runs}:2: malformed run record: " in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("field", ["valid_from", "valid_to"])
def test_numeric_manifest_instant_exits_2_with_line(tmp_path, field):
    lines = (FIXTURES / "history" / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = 5
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
    for command in ("evolve", "trend"):
        result = invoke(
            ["corpus", command, "--manifest", str(manifest), "--from", "2023-01", "--to", "2023-05"]
        )
        assert result.exit_code == 2, result.output
        assert f"{manifest}:2: malformed manifest record: " in result.output
        assert "Traceback" not in result.output


def test_out_of_range_commit_instant_exits_2_with_line(tmp_path, capsys):
    run = {"workflow_id": "a", "commit_sha": "x", "committed_at": "9999-12-31T23:59:59-05:00",
           "conclusion": "success"}
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps(run) + "\n", encoding="utf-8")
    assert run_main(["reliability", "metrics", "--runs", str(runs), "--window", WINDOW]) == 2
    err = capsys.readouterr().err
    assert f"{runs}:1: malformed run record: " in err and "out of range" in err


def test_out_of_range_manifest_instant_exits_2_with_line(tmp_path, capsys):
    lines = (FIXTURES / "history" / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    record = dict(json.loads(lines[1]), valid_from="0001-01-01T00:00:00+05:00")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
    args = ["corpus", "evolve", "--manifest", str(manifest), "--from", "2023-01", "--to", "2023-05"]
    assert run_main(args) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:2: malformed manifest record: " in err and "out of range" in err


@pytest.mark.parametrize(
    "command", [["compare"], ["regress", "--analysis", "sizes"], ["regress", "--analysis", "features"]]
)
def test_numeric_sizes_workflow_id_reads_as_its_text(tmp_path, clienv, command):
    """Sizes ids 0, 1, ... among file names join the runs of "0", "1", ..., as the same ids as text do."""
    runs = [json.loads(line) for line in Path(clienv["runs"]).read_text(encoding="utf-8").splitlines()]
    ids = {}
    outputs = []
    for kind in (str, int):
        sizes = [json.loads(line) for line in Path(clienv["sizes"]).read_text(encoding="utf-8").splitlines()]
        for k, record in enumerate(sizes[::2]):
            ids[record["file"]] = str(k)
            record["workflow_id"] = kind(k)
        sizes_path, runs_path = tmp_path / f"sizes_{kind.__name__}.jsonl", tmp_path / "runs.jsonl"
        sizes_path.write_text("".join(json.dumps(r) + "\n" for r in sizes), encoding="utf-8")
        renamed = [dict(r, workflow_id=ids.get(r["workflow_id"], r["workflow_id"])) for r in runs]
        runs_path.write_text("".join(json.dumps(r) + "\n" for r in renamed), encoding="utf-8")
        result = invoke(
            ["reliability", *command, "--runs", str(runs_path), "--sizes", str(sizes_path),
             "--window", "2023-01-01..2023-12-31"]
        )
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("ids", [[["alpha", "ci.yml"]], [1, "a"]], ids=["list", "number-and-string"])
def test_non_string_manifest_workflow_id_reads_as_its_text(tmp_path, ids):
    records = [json.loads(line) for line in Path(MANIFEST).read_text(encoding="utf-8").splitlines()]
    for record, workflow_id in zip(records, ids):
        record["workflow_id"] = workflow_id
    for record in records:
        record["file"] = str(FIXTURES / "history" / record["file"])
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    for command in ("evolve", "trend"):
        args = ["corpus", command, "--from", "2023-01", "--to", "2023-05", "--manifest"]
        result = invoke([*args, str(manifest)])
        assert result.exit_code == 0, result.output
        assert result.output == invoke([*args, MANIFEST]).output


def test_out_of_range_window_instant_is_a_usage_error(capsys):
    window = "0001-01-01T00:00:00+05:00..2023-12-31"
    assert run_main(["reliability", "metrics", "--runs", RUNS, "--window", window]) == 64
    assert "bad window instant" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1.5", "-0.1"])
def test_alpha_outside_the_open_unit_interval_is_a_usage_error(clienv, capsys, alpha):
    commands = [
        ["corpus", "trend", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05"],
        [
            "reliability", "compare", "--runs", clienv["runs"], "--sizes", clienv["sizes"],
            "--window", "2023-01-01..2023-12-31",
        ],
    ]
    for command in commands:
        assert run_main([*command, "--alpha", alpha]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "Invalid value for '--alpha'" in err


@pytest.mark.parametrize(
    "bad_record, commands",
    [
        (
            _sizes_record("repo/b.yml", features={
                "commands": {"present": True, "structural_only": False, "n_paths": float("inf")}
            }),
            [["regress", "--analysis", "features"]],
        ),
        (_sizes_record("repo/b.yml", n_paths=float("inf")), [["regress"], ["compare"]]),
        (_sizes_record("repo/b.yml", n_constructs=float("nan")), [["regress"], ["compare"]]),
    ],
    ids=["infinite-feature-paths", "infinite-size", "nan-size"],
)
def test_non_finite_sizes_exit_2_with_line(tmp_path, clienv, capsys, bad_record, commands):
    sizes = tmp_path / "sizes.jsonl"
    lines = [json.dumps(_sizes_record("repo/a.yml")), json.dumps(bad_record)]
    sizes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in commands:
        args = ["reliability", *command, "--runs", clienv["runs"], "--sizes", str(sizes)]
        assert run_main([*args, "--window", "2023-01-01..2023-12-31"]) == 2
        err = capsys.readouterr().err
        assert f"{sizes}:2: bad scan record: " in err


def test_sizes_too_far_apart_for_a_fit_exit_2(tmp_path, clienv, capsys):
    lines = open(clienv["sizes"], encoding="utf-8").read().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), n_paths=1e20))
    sizes = tmp_path / "sizes.jsonl"
    sizes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["reliability", "regress", "--runs", clienv["runs"], "--sizes", str(sizes)]
    assert run_main([*args, "--window", "2023-01-01..2023-12-31"]) == 2
    assert "Error: design matrix is rank deficient" in capsys.readouterr().err


def test_feature_paths_too_far_apart_exit_2_and_the_band_rule_stays_a_usage_error(tmp_path, clienv, capsys):
    records = [json.loads(line) for line in open(clienv["sizes"], encoding="utf-8")]
    used = next(r for r in records if r["features"]["commands"]["present"])
    used["features"]["commands"]["n_paths"] = 1e20
    for r in records[:2]:  # a feature too rare for the 5%-95% usage band
        r["features"]["deployment"] = {"present": True, "structural_only": False, "n_paths": 1}
    sizes = tmp_path / "sizes.jsonl"
    sizes.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    args = ["reliability", "regress", "--analysis", "features", "--runs", clienv["runs"], "--sizes", str(sizes),
            "--window", "2023-01-01..2023-12-31"]
    assert run_main(args) == 2
    assert "Error: design matrix is rank deficient" in capsys.readouterr().err
    assert run_main([*args, "--features", "deployment"]) == 64
    assert "usage band: deployment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, code, message",
    [
        (["--analysis", "sizes", "--features", "commands"], 64, "--features only applies to --analysis features"),
        (["--analysis", "features", "--features", "commands,nosuch"], 64, "unknown features: nosuch"),
        # the usage band is read from the scan records, so an unreadable input comes first
        (["--analysis", "features", "--features", "commands"], 2, "bad.jsonl:1: malformed"),
    ],
    ids=["features-with-sizes", "unknown-feature", "band-after-load"],
)
def test_regress_usage_errors_come_before_reading_the_inputs(tmp_path, clienv, capsys, options, code, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    args = ["reliability", "regress", "--window", WINDOW, *options]
    assert run_main([*args, "--runs", str(bad), "--sizes", clienv["sizes"]]) == code
    assert message in capsys.readouterr().err
    assert run_main([*args, "--runs", clienv["runs"], "--sizes", str(bad)]) == code
    assert message in capsys.readouterr().err


def doubling_anchors(lines):
    """Each line is a two-item list of aliases to the line before: paths double per line."""
    out = ["a0: &a0 [x, x]"]
    out += [f"a{i}: &a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, lines)]
    return "\n".join(out) + "\n"


def test_alias_bomb_hits_path_budget_quickly(tmp_path):
    small = tmp_path / "small.yml"
    small.write_text(doubling_anchors(14), encoding="utf-8")
    result = invoke(["scan", "--format", "jsonl", str(small)])
    assert result.exit_code == 0
    assert json.loads(result.output)["n_paths"] == 65518

    bomb = tmp_path / "bomb.yml"
    bomb.write_text(doubling_anchors(25), encoding="utf-8")
    start = time.perf_counter()
    result = invoke(["scan", "--format", "jsonl", str(bomb)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["message"] == f"more than {wflens.model.MAX_PATHS} paths after alias expansion"
    assert error["line"] is not None
    assert elapsed < 1.0


# ----------------------------------------------------------- determinism


def test_every_subcommand_is_deterministic(clienv):
    window = ["--window", "2023-01-01..2023-12-31"]
    matrix = [
        ["scan", CORPUS],
        ["scan", CORPUS, "--format", "jsonl"],
        ["scan", CORPUS, "--format", "text"],
        ["lint", str(FIXTURES / "kitchen.yml")],
        ["lint", "--format", "json", CORPUS],
        ["catalog", "validate"],
        ["catalog", "extract", CORPUS],
        ["catalog", "classify", "jobs.<id>.strategy"],
        ["corpus", "stats", CORPUS],
        ["corpus", "evolve", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05"],
        ["corpus", "evolve", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05",
         "--format", "json"],
        ["corpus", "trend", "--manifest", MANIFEST, "--from", "2023-01", "--to", "2023-05"],
        ["reliability", "metrics", "--runs", RUNS, "--window", WINDOW],
        ["reliability", "metrics", "--runs", RUNS, "--window", WINDOW, "--format", "json"],
        ["reliability", "compare", "--runs", clienv["runs"], "--sizes", clienv["sizes"], *window],
        ["reliability", "regress", "--runs", clienv["runs"], "--sizes", clienv["sizes"], *window],
        ["reliability", "regress", "--runs", clienv["runs"], "--sizes", clienv["sizes"], *window,
         "--analysis", "features"],
    ]
    for args in matrix:
        first = invoke(args)
        second = invoke(args)
        assert first.stdout_bytes == second.stdout_bytes, f"nondeterministic: {args}"
        assert first.exit_code == second.exit_code, f"flaky exit: {args}"
        assert first.stdout_bytes, f"no output: {args}"
