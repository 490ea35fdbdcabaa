#!/usr/bin/env python3
"""Seeded offline benchmark of the wflens command line.

Usage (from the repository root)::

    python3 bench/run.py --workload corpus-mixed --seed 1 --seconds 55 --trace 0

The run generates its inputs from ``--seed`` into ``bench/.work/``, runs
the workload's commands, checks every output against the generators'
expectations (``oracle.py``, which uses no wflens code) and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is a JSON report with the machine facts, a CPU probe
(``probe.py``) taken before and after the workload, every sample's raw
time and probe, and the error rate.

``--trace 0`` measures end to end.  The load is a closed loop of one
client that runs one ``wflens`` command at a time, each in a fresh child
process forked from a server that has imported ``wflens.cli`` and run
nothing (``worker.py``).  The import is paid once there, and measured on
its own as the set-up time: a fresh ``wflens catalog classify`` process
every SETUP_EVERY cycles.  The commands run in turn until ``--seconds``
is spent.  Each timing metric is the median of its samples, scaled by a
CPU probe taken on the same core (see ``scaled``), and ``peak_rss_mb`` is
the largest resident set of any command process.
``--trace 1`` runs the same commands in one process through ``spans.py``,
which records a span around each layer's public functions, and reports
per-layer self times, counts and the tracing overhead instead.

Every workload runs every command, so every metric exists on every
workload; what differs is which layer the input stresses (see WORKLOADS).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from gen_corpus import generate_corpus
from gen_runs import generate_reliability
from probe import probe_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# files/tiny: the YAML corpus, stored as "shards" directories so that each
# corpus command call is short (see measure); workflows: the reliability
# pair (about 11 runs per workflow).  Each workload runs all seven
# commands; the sizes put the weight of a cycle on the layers named in "why".
WORKLOADS = {
    "corpus-mixed": {
        "files": 64, "shards": 4, "tiny": False, "workflows": 1000,
        "why": "research-corpus shape (lognormal sizes, tail over 1000 paths, anchors, unknown keys, "
               "malformed files) and a 1000-workflow runs pair: YAML parse and the GLM fits carry most",
    },
    "many-tiny": {
        "files": 400, "shards": 6, "tiny": True, "workflows": 300,
        "why": "400 files of 10-40 paths and a 300-workflow runs pair: fixed per-file costs (discovery, "
               "read, metrics, records, JSON, evaluate) and per-command costs carry far more of the time",
    },
}
SETUP_ARGV = ["catalog", "classify", "jobs.<id>.uses"]
SETUP_EVERY = 2
# The probe's time (probe.probe_s) on an idle core of the 2.0 GHz Xeon the
# benchmark was tuned on; timings are reported at that core speed.
REFERENCE_PROBE_S = 0.0025
DEADLINE_S = 170.0  # the whole run, generation included, ends well inside 180 s
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONSTARTUP", "PYTHONWARNINGS")
WFLENS = "import sys; from wflens.cli import main; sys.exit(main())"


class Deadline(Exception):
    """The run's time budget ran out while a child process was running."""


class Child:
    """Starts the run's child processes, one at a time, inside its time budget."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.start = start
        signal.signal(signal.SIGALRM, _on_alarm)
        # Children see the program as an installed copy would behave: no
        # WFLENS_* overrides, byte-code cached after the first import, and
        # buffered output.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("WFLENS_") and k not in UNSET_ENV}
        self.env["PYTHONPATH"] = str(SRC)

    @contextlib.contextmanager
    def budget(self, name: str):
        """Raise :class:`Deadline` inside the block when the run's time is spent."""
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 1:
            raise Deadline(name)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run(self, name: str, argv: list[str]) -> dict:
        """Run ``argv`` with output to files; return wall time, exit code, RSS and output."""
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            try:
                with self.budget(name):
                    _, status, usage = os.wait4(proc.pid, 0)
            except Deadline:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t
        return {
            "wall": wall,
            "code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.read_text(encoding="utf-8", errors="replace"),
            "stderr": err.read_text(encoding="utf-8", errors="replace"),
        }

    def wflens(self, name: str, argv: list[str]) -> dict:
        """A fresh ``wflens`` process, as a user starts it."""
        return self.run(name, [sys.executable, "-c", WFLENS, *argv])


class ForkServer:
    """``worker.py``: each command in a fresh fork of one imported ``wflens.cli``."""

    def __init__(self, child: Child):
        self.child = child
        self.log = open(child.work / "worker.log", "wb")
        # Its own process group, so that a kill also reaches a running fork.
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=child.work, env=child.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, start_new_session=True)

    def run(self, name: str, argv: list[str]) -> dict:
        """Run one command; return its wall time (None if it never finished), exit code, RSS and output."""
        out, err = self.child.work / f"{name}.out", self.child.work / f"{name}.err"
        request = {"argv": argv, "out": str(out), "err": str(err)}
        with self.child.budget(name):
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the fork server stopped:\n{(self.child.work / 'worker.log').read_text()}")
        reply = json.loads(line)
        reply["stdout"] = out.read_text(encoding="utf-8", errors="replace")
        reply["stderr"] = err.read_text(encoding="utf-8", errors="replace")
        return reply

    def close(self) -> None:
        """End the server at the end of its input; kill it and its fork if that takes too long."""
        try:
            self.proc.stdin.close()
            with self.child.budget("fork server exit"):
                self.proc.wait()
        except (Deadline, OSError):
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
                _wait_group_gone(self.proc.pid)
            self.proc.stdout.close()
            self.log.close()


def _wait_group_gone(pgid: int, timeout: float = 5.0) -> None:
    """Wait until no process of group ``pgid`` is left (a killed fork is reaped by init)."""
    end = time.perf_counter() + timeout
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _on_alarm(signum, frame):
    raise Deadline("time budget")


def command_table(parts: list[dict], runs: dict) -> list[tuple[str, list[tuple[list[str], object]]]]:
    """(label, [(wflens argv, check), ...]) for the seven benchmarked commands.

    A corpus command has one variant per corpus in ``parts``, run on that
    corpus's directory and checked against its files; a reliability command
    has one variant.
    """
    window = ["--window", runs["window"]]
    rel = ["--runs", "runs.jsonl"]
    sizes = ["--sizes", "sizes.jsonl"]

    def on_parts(argv: list[str], check) -> list[tuple[list[str], object]]:
        return [([*argv, part["dir"]], lambda c, o, e, part=part: check(c, o, e, part)) for part in parts]

    def once(argv: list[str], check, *args) -> list[tuple[list[str], object]]:
        return [(argv, lambda c, o, e: check(c, o, e, runs, *args))]

    return [
        ("scan", on_parts(["scan", "--format", "jsonl"], oracle.check_scan)),
        ("lint", on_parts(["lint", "--format", "json"], oracle.check_lint)),
        ("corpus_stats", on_parts(["corpus", "stats"], oracle.check_corpus_stats)),
        ("reliability_metrics", once(["reliability", "metrics", *rel, *window], oracle.check_reliability_metrics)),
        ("reliability_compare", once(["reliability", "compare", *rel, *sizes, *window], oracle.check_compare)),
        ("reliability_regress_sizes",
         once(["reliability", "regress", *rel, *sizes, *window, "--analysis", "sizes"], oracle.check_regress, "sizes")),
        ("reliability_regress_features",
         once(["reliability", "regress", *rel, *sizes, *window, "--analysis", "features"], oracle.check_regress,
              "features")),
    ]


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, label: str, code, stdout: str, stderr: str, check) -> None:
        self.attempted += 1
        try:
            problems = list(check(code, stdout, stderr))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def measure(child: Child, commands, corpus: dict, runs: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end run: the commands in turn through the fork server until ``seconds``.

    Cycle ``i`` runs every command once, a corpus command on its variant
    ``i`` mod the number of variants, so every command gets the same number
    of samples, short ones, spread over the whole run; a fresh ``wflens
    catalog classify`` process (the set-up time) runs every SETUP_EVERY
    cycles.  The run ends before a cycle that would overrun ``seconds``,
    once every variant has run.  A command's time is the sum over its
    variants of the median of their samples, each scaled to the reference
    core speed (see ``scaled``); for a corpus command that is the time to
    handle the whole corpus, one shard per call.  ``setup_s`` is the median
    of its samples scaled by the median probe of the whole run: a fresh
    process's import does not follow the probe sample by sample, but it
    does follow the host's speed over a run.
    """
    wall = {label: [[] for _ in variants] for label, variants in commands}
    probe = {label: [[] for _ in variants] for label, variants in commands}
    setup: list[float] = []
    peak_rss = 0.0
    min_cycles = max(len(variants) for _, variants in commands)
    server = ForkServer(child)
    try:
        start = time.perf_counter()
        cycle = 0
        while True:
            cycle_start = time.perf_counter()
            for label, variants in commands:
                variant = cycle % len(variants)
                argv, check = variants[variant]
                r = server.run(label, argv)
                tally.check(label, r["code"], r["stdout"], r["stderr"], check)
                if r["wall"] is not None:
                    wall[label][variant].append(r["wall"])
                    probe[label][variant].append(r["probe"])
                peak_rss = max(peak_rss, r["rss_mb"])
            if cycle % SETUP_EVERY == 0:
                r = child.wflens("setup", SETUP_ARGV)
                tally.check("setup", r["code"], r["stdout"], r["stderr"], oracle.check_classify)
                setup.append(r["wall"])
                peak_rss = max(peak_rss, r["rss_mb"])
            cycle += 1
            now = time.perf_counter()
            if cycle >= min_cycles and now - start + (now - cycle_start) > seconds:
                break
    finally:
        server.close()
    took = {label: sum(statistics.median(scaled(w, p)) for w, p in zip(wall[label], probe[label]))
            for label in wall}
    run_probe = statistics.median(p for variants in probe.values() for samples in variants for p in samples)
    n_files = len(corpus["files"])
    metrics = {
        "setup_s": (statistics.median(setup) * REFERENCE_PROBE_S / run_probe, "s"),
        "scan_files_per_s": (n_files / took["scan"], "files/s"),
        "scan_mb_per_s": (corpus["bytes"] / 1e6 / took["scan"], "MB/s"),
        "lint_files_per_s": (n_files / took["lint"], "files/s"),
        "corpus_stats_files_per_s": (n_files / took["corpus_stats"], "files/s"),
        "reliability_metrics_runs_per_s": (runs["n_runs"] / took["reliability_metrics"], "runs/s"),
        "reliability_compare_s": (took["reliability_compare"], "s"),
        "reliability_regress_sizes_s": (took["reliability_regress_sizes"], "s"),
        "reliability_regress_features_s": (took["reliability_regress_features"], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    detail = {
        "cycles": cycle,
        "setup_s": setup,
        "wall_s": wall,
        "probe_s": probe,
        "unscaled_s": {label: sum(statistics.median(w) for w in wall[label]) for label in wall},
    }
    return metrics, detail


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Wall times scaled to a core on which the probe takes REFERENCE_PROBE_S.

    The host's cores slow down by 1.5 to 2 times for seconds to minutes at
    a time, which moves the median of raw wall times by more than any bound
    a regression check could use.  The probe, taken on the same core just
    before and after each command, slows down with it, so the ratio of a
    command's time to its probe's time stays put; REFERENCE_PROBE_S turns
    the ratio back into seconds.  The raw times are in the report.
    """
    return [w * REFERENCE_PROBE_S / p for w, p in zip(walls, probes)]


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict, n_files: int) -> dict:
    """Per-layer self times and counts from the spans of a traced run.

    A span's self time is its duration minus its children's.  Scan-side
    times are per file handled by the traced ``scan``, ``lint`` and
    ``corpus stats`` commands; reliability-side times are per command
    that calls the layer.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    scan_file_ms = []
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if name == "scan.scan_file":
            scan_file_ms.append((end - start) * 1000.0)
    counts = trace["counts"]
    passes = trace["passes"]
    per_file = n_files * 3 * passes  # scan, lint and corpus stats each handle every file
    per_command_file = n_files * passes
    rel_commands = 4 * passes

    def ms(name: str, files: int = per_file) -> float:
        return self_s.get(name, 0.0) * 1000.0 / files

    def per(name: str, commands: int) -> float:
        return self_s.get(name, 0.0) / commands

    fits = counts.get("stats.glm.fits", 0)
    untraced = statistics.median(trace["untraced_scan_s"])
    traced = statistics.median(trace["traced_scan_s"])
    return {
        "setup.import_s": (trace["import_s"], "s"),
        "catalog.default_catalog_s": (trace["default_catalog_s"], "s"),
        "model.parse_workflow_ms": (ms("model.parse_workflow"), "ms"),
        "model.enumerate_paths_ms": (ms("model.enumerate_paths"), "ms"),
        "model.paths": (counts.get("model.paths", 0) / per_file, "count"),
        "model.discover_workflow_files_s": (per("model.discover_workflow_files", 3 * passes), "s"),
        "abstraction.abstract_workflow_ms": (ms("abstraction.abstract_workflow"), "ms"),
        "abstraction.constructs": (counts.get("abstraction.constructs", 0) / per_file, "count"),
        "catalog.validate_workflow_ms": (ms("catalog.validate_workflow"), "ms"),
        "catalog.unknown_constructs": (counts.get("catalog.unknown_constructs", 0) / per_file, "count"),
        "metrics.workflow_metrics_ms": (ms("metrics.workflow_metrics"), "ms"),
        "scan.scan_file_ms_p50": (_quantile(scan_file_ms, 50), "ms"),
        "scan.scan_file_ms_p99": (_quantile(scan_file_ms, 99), "ms"),
        "scan.scan_file_samples": (len(scan_file_ms), "count"),
        "scan.self_ms": (ms("scan.scan_file"), "ms"),
        "scan.scan_record_ms": (ms("scan.scan_record", per_command_file), "ms"),
        "lint.evaluate_ms": (ms("lint.evaluate", per_command_file), "ms"),
        "lint.diagnostics": (counts.get("lint.diagnostics", 0) / per_command_file, "count"),
        "corpus.corpus_stats_s": (per("corpus.corpus_stats", passes), "s"),
        "cli.self_ms": (sum(ms(f"cli.{c}") for c in ("scan", "lint", "corpus_stats")), "ms"),
        "reliability.load_run_records_s": (per("reliability.load_run_records", rel_commands), "s"),
        "reliability.runs_loaded": (counts.get("reliability.runs_loaded", 0) / rel_commands, "count"),
        "reliability.group_records_s": (per("reliability.group_records", rel_commands), "s"),
        "reliability.reliability_metrics_s": (per("reliability.reliability_metrics", rel_commands), "s"),
        "reliability.compare_groups_s": (per("reliability.compare_groups", passes), "s"),
        "stats.mann_whitney_u_s": (per("stats.mann_whitney_u", passes), "s"),
        "reliability.regress_sizes_s": (per("reliability.regress_sizes", passes), "s"),
        "reliability.regress_features_s": (per("reliability.regress_features", passes), "s"),
        "stats.glm.fit_binomial_logistic_s": (per("stats.glm.fit_binomial_logistic", 2 * passes), "s"),
        "stats.glm.fit_negative_binomial_s": (per("stats.glm.fit_negative_binomial", 2 * passes), "s"),
        "stats.glm.fits": (fits / passes, "count"),
        "stats.glm.converged_ratio": (counts.get("stats.glm.converged", 0) / fits if fits else 0.0, "ratio"),
        "cli.self_s": (sum(per(f"cli.{c}", rel_commands) for c in (
            "reliability_metrics", "reliability_compare",
            "reliability_regress_sizes", "reliability_regress_features")), "s"),
        "trace.scan_files_per_s": (n_files / traced, "files/s"),
        "trace.scan_files_per_s_untraced": (n_files / untraced, "files/s"),
        "trace.overhead_pct": ((traced / untraced - 1.0) * 100.0, "%"),
    }


def traced_run(child: Child, corpus: dict, runs: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Traced run of every command, the corpus commands on the whole corpus at once."""
    commands = {label: variants[0] for label, variants in command_table([corpus], runs)}
    spec = {
        "work": str(child.work),
        "seconds": seconds,
        "scan_argv": commands["scan"][0],
        "commands": [[label, argv] for label, (argv, _) in commands.items()],
    }
    (child.work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    r = child.run("spans", [sys.executable, str(BENCH / "spans.py"), "spec.json"])
    if r["code"] != 0:
        raise RuntimeError(f"traced run failed with exit code {r['code']}:\n{r['stderr']}")
    trace = json.loads((child.work / "spans.json").read_text(encoding="utf-8"))
    for label, code, out, err in trace["outputs"]:
        stdout = (child.work / out).read_text(encoding="utf-8")
        stderr = (child.work / err).read_text(encoding="utf-8")
        tally.check(f"traced {label}", code, stdout, stderr, commands[label][1])
    metrics = layer_metrics(trace, len(corpus["files"]))
    return metrics, {"passes": trace["passes"], "unwrapped": trace["missing"]}


def run(workload: str, spec: dict, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the report."""
    start = time.perf_counter()
    t = time.perf_counter()
    corpus = generate_corpus(work / "corpus", spec["files"], seed, tiny=spec["tiny"], shards=spec["shards"])
    runs = generate_reliability(work, spec["workflows"], seed)
    generate_s = time.perf_counter() - t
    child = Child(work, start)
    facts_run = child.run("facts", [sys.executable, str(BENCH / "facts.py")])
    if facts_run["code"] != 0:
        raise RuntimeError(f"cannot import wflens from {SRC}:\n{facts_run['stderr']}")
    facts = json.loads(facts_run["stdout"])
    tally = Tally()
    probe_before = probe_s()
    if trace:
        metrics, detail = traced_run(child, corpus, runs, seconds, tally)
    else:
        metrics, detail = measure(child, command_table(corpus["shards"], runs), corpus, runs, seconds, tally)
    probe_after = probe_s()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "facts": facts,
        "workload_probe_s": {"before": probe_before, "after": probe_after},
        "inputs": {
            "files": len(corpus["files"]),
            "malformed_files": sum(1 for e in corpus["files"].values() if "error" in e),
            "yaml_bytes": corpus["bytes"],
            "workflows": len(runs["workflows"]),
            "runs": runs["n_runs"],
        },
        "generate_s": generate_s,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
        **detail,
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded offline benchmark of the wflens CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wflens" / "cli.py").is_file():
        print(f"no wflens sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, report = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in report["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
