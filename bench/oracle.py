"""Output checks for every benchmarked command, against generator expectations.

Nothing here imports wflens: each check parses the command's output as a
user would and compares it with the values the generators recorded.  A
check returns a list of mismatch descriptions; an empty list means the
output is correct.  Exit codes follow the documented contract: 0 success,
1 lint warnings, 2 unparseable input.
"""

from __future__ import annotations

import json
from collections import Counter

SIZE_METRICS = ("n_paths", "n_constructs", "n_features", "path_construct_ratio")
OUTCOMES = ("failure_rate", "n_commits", "ttr", "availability")
MAX_REPORTED = 5


def _parsed(corpus: dict) -> dict[str, dict]:
    return {f: e for f, e in corpus["files"].items() if "error" not in e}


def _malformed(corpus: dict) -> dict[str, dict]:
    return {f: e["error"] for f, e in corpus["files"].items() if "error" in e}


def _exit_code(code, corpus: dict, clean: tuple[int, ...] = (0,)) -> list[str]:
    want = (2,) if _malformed(corpus) else clean
    return [] if code in want else [f"exit code {code}, expected one of {want}"]


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]
    return problems


def check_classify(code: int, stdout: str, stderr: str) -> list[str]:
    """``catalog classify 'jobs.<id>.uses'``: a reusable-workflow call."""
    if code != 0:
        return [f"exit code {code}"]
    got = json.loads(stdout)
    want = {"construct": "jobs.<id>.uses", "feature": "workflow_reuse", "known": True, "level": "job"}
    return [] if got == want else [f"classify gave {got}"]


def check_scan(code: int, stdout: str, stderr: str, corpus: dict) -> list[str]:
    """``scan --format jsonl``: one record per file, sorted by file."""
    problems = _exit_code(code, corpus)
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    files = [r["file"] for r in records]
    if files != sorted(corpus["files"]):
        problems.append(f"scan listed {len(files)} files, expected {len(corpus['files'])} in sorted order")
    for record in records:
        expected = corpus["files"].get(record["file"])
        if expected is None:
            continue
        name = record["file"]
        if "error" in expected:
            err = record.get("error") or {}
            mark = (err.get("line"), err.get("column"))
            want = (expected["error"]["line"], expected["error"]["column"])
            if mark != want or record.get("valid") is not False:
                problems.append(f"{name}: error mark {mark}, expected {want}")
            continue
        if "error" in record:
            problems.append(f"{name}: unexpected parse error {record['error']}")
            continue
        if record["n_paths"] != expected["n_paths"]:
            problems.append(f"{name}: n_paths {record['n_paths']}, expected {expected['n_paths']}")
        if record["n_constructs"] != len(expected["constructs"]):
            problems.append(
                f"{name}: n_constructs {record['n_constructs']}, expected {len(expected['constructs'])}"
            )
        if sorted(record["unknown_constructs"]) != expected["unknown"]:
            problems.append(f"{name}: unknown constructs {record['unknown_constructs']}, expected {expected['unknown']}")
        if record["valid"] != (not expected["unknown"]):
            problems.append(f"{name}: valid {record['valid']}")
    return _limit(problems)


def check_lint(code: int, stdout: str, stderr: str, corpus: dict) -> list[str]:
    """``lint --format json``: a risk summary per parsed file, failures on stderr."""
    report = json.loads(stdout)
    warned = any(d["severity"] == "warn" for d in report["diagnostics"])
    problems = _exit_code(code, corpus, clean=(1,) if warned else (0,))
    parsed = _parsed(corpus)
    if set(report["risk"]) != set(parsed):
        problems.append(f"lint summarised {len(report['risk'])} files, expected {len(parsed)}")
    for d in report["diagnostics"]:
        if d["file"] not in parsed or d["severity"] not in ("warn", "info"):
            problems.append(f"bad diagnostic {d['rule_id']} for {d['file']}")
    reported = {line.split(": ", 1)[0] for line in stderr.splitlines() if ": " in line}
    missing = set(_malformed(corpus)) - reported
    if missing:
        problems.append(f"lint did not report {len(missing)} unparseable files")
    return _limit(problems)


def check_corpus_stats(code: int, stdout: str, stderr: str, corpus: dict) -> list[str]:
    """``corpus stats``: workflow count, per-construct occurrences and users, size range."""
    problems = _exit_code(code, corpus)
    stats = json.loads(stdout)
    parsed = _parsed(corpus)
    if stats["n_workflows"] != len(parsed):
        problems.append(f"n_workflows {stats['n_workflows']}, expected {len(parsed)}")
    occurrences: Counter = Counter()
    users: Counter = Counter()
    for expected in parsed.values():
        occurrences.update(expected["constructs"])
        users.update(expected["constructs"].keys())
    freq = stats["construct_freq"]
    if set(freq) != set(occurrences):
        problems.append(f"{len(set(freq) ^ set(occurrences))} constructs differ from the expected set")
    for construct, row in freq.items():
        if construct in occurrences and (
            row["occurrences"] != occurrences[construct] or row["workflows_using"] != users[construct]
        ):
            problems.append(f"{construct}: {row['occurrences']}/{row['workflows_using']}, "
                            f"expected {occurrences[construct]}/{users[construct]}")
    sizes = sorted(e["n_paths"] for e in parsed.values())
    dist = stats["distributions"]["n_paths"]
    if (dist["min"], dist["max"]) != (sizes[0], sizes[-1]):
        problems.append(f"n_paths range {dist['min']}..{dist['max']}, expected {sizes[0]}..{sizes[-1]}")
    return _limit(problems)


def check_reliability_metrics(code: int, stdout: str, stderr: str, runs: dict) -> list[str]:
    """``reliability metrics``: one row per workflow, counts as generated."""
    problems = [] if code == 0 else [f"exit code {code}"]
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    ids = [r["workflow_id"] for r in rows]
    if ids != sorted(runs["workflows"]):
        problems.append(f"{len(ids)} rows, expected {len(runs['workflows'])} in sorted order")
    for row in rows:
        want = runs["workflows"].get(row["workflow_id"])
        if want is None:
            continue
        counted = want["n_runs_counted"]
        rate = want["failures"] / counted if counted else None
        got_rate = row["failure_rate"]
        rate_ok = got_rate is None if rate is None else got_rate is not None and abs(got_rate - rate) < 1e-6
        if row["n_runs_counted"] != counted or row["n_commits"] != want["n_commits"] or not rate_ok:
            problems.append(
                f"{row['workflow_id']}: runs/commits/failure_rate "
                f"{row['n_runs_counted']}/{row['n_commits']}/{got_rate}, "
                f"expected {counted}/{want['n_commits']}/{rate}"
            )
    return _limit(problems)


def check_compare(code: int, stdout: str, stderr: str, runs: dict) -> list[str]:
    """``reliability compare``: one cell per size metric and outcome."""
    problems = [] if code == 0 else [f"exit code {code}"]
    cells = json.loads(stdout)["cells"]
    pairs = sorted((c["size_metric"], c["outcome"]) for c in cells)
    if len(cells) != runs["compare_cells"] or pairs != sorted((s, o) for s in SIZE_METRICS for o in OUTCOMES):
        problems.append(f"{len(cells)} cells, expected {runs['compare_cells']}")
    n = len(runs["workflows"])
    for c in cells:
        if c["outcome"] == "n_commits" and not 0 < c["n_small"] + c["n_large"] <= n:
            problems.append(f"{c['size_metric']}: group sizes {c['n_small']}+{c['n_large']}")
    return _limit(problems)


def check_regress(code: int, stdout: str, stderr: str, runs: dict, analysis: str) -> list[str]:
    """``reliability regress``: one row per predictor, outcome and analysis fitted."""
    problems = [] if code == 0 else [f"exit code {code}"]
    report = json.loads(stdout)
    rows = report["rows"]
    want = runs["regress_rows"][analysis]
    if report["analysis"] != analysis or len(rows) != want:
        problems.append(f"{analysis}: {len(rows)} rows, expected {want}")
    for r in rows:
        if not (r["ratio"] > 0 and r["ci_low"] <= r["ratio"] <= r["ci_high"]):
            problems.append(f"{r['predictor']}/{r['outcome']}: ratio {r['ratio']} outside its interval")
    return _limit(problems)
