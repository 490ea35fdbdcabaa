"""Traced in-process run of wflens CLI commands.

Usage: ``python3 bench/spans.py SPEC.json`` with the program's ``src``
directory on ``PYTHONPATH``.  The spec names a working directory, a time
budget, the scan command used for the overhead comparison and the list of
``[label, argv]`` commands to trace.  Tracing overhead is the median of
alternating untraced and traced in-process scans.

The recorder wraps public functions at the module attribute their callers
look up (for example ``wflens.scan.parse_workflow``, which is what
``scan_text`` calls) and records one span per call: name, start, end and
parent.  Each command runs under a root span ``cli.<label>`` through
``wflens.cli.main``.  Spans stay in memory and are written to
``spans.json`` in the working directory when the run ends, together with
the counters taken from the wrapped functions' results.  Nothing under
``src/`` is edited; an attribute that no longer exists is skipped, so its
layer reports zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

_t0 = time.perf_counter()
cli = importlib.import_module("wflens.cli")  # timed: the import is the set-up cost
IMPORT_S = time.perf_counter() - _t0
catalog = importlib.import_module("wflens.catalog")
reliability = importlib.import_module("wflens.reliability")
scan = importlib.import_module("wflens.scan")


def _fit(result) -> dict:
    return {"stats.glm.fits": 1, "stats.glm.converged": int(bool(result.converged))}


# (module, attribute, span name, counter of the result)
TARGETS = (
    (cli, "discover_workflow_files", "model.discover_workflow_files", None),
    (cli, "scan_file", "scan.scan_file", None),
    (cli, "scan_record", "scan.scan_record", None),
    (scan, "parse_workflow", "model.parse_workflow", None),
    (scan, "enumerate_paths", "model.enumerate_paths", lambda r: {"model.paths": len(r)}),
    (scan, "abstract_workflow", "abstraction.abstract_workflow",
     lambda r: {"abstraction.constructs": r.distinct()}),
    (scan, "validate_workflow", "catalog.validate_workflow",
     lambda r: {"catalog.unknown_constructs": len(r.unknown)}),
    (scan, "workflow_metrics", "metrics.workflow_metrics", None),
    (cli, "evaluate", "lint.evaluate", lambda r: {"lint.diagnostics": len(r[0])}),
    (cli, "corpus_stats", "corpus.corpus_stats", None),
    (cli, "load_run_records", "reliability.load_run_records",
     lambda r: {"reliability.runs_loaded": len(r)}),
    (cli, "group_records", "reliability.group_records", None),
    (cli, "reliability_metrics", "reliability.reliability_metrics", None),
    (cli, "compare_groups", "reliability.compare_groups", None),
    (reliability, "mann_whitney_u", "stats.mann_whitney_u", None),
    (cli, "regress_sizes", "reliability.regress_sizes", None),
    (cli, "regress_features", "reliability.regress_features", None),
    (reliability, "fit_binomial_logistic", "stats.glm.fit_binomial_logistic", _fit),
    (reliability, "fit_negative_binomial", "stats.glm.fit_negative_binomial", _fit),
)


class SpanRecorder:
    """Spans ``[name, start, end, parent_index]`` of the calls it wraps."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, function, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if counter is not None:
                try:
                    self.counts.update(counter(result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the result changed shape; the counter reads zero
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            function = getattr(module, attr, None)
            if function is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, function))
            setattr(module, attr, self._wrapper(function, name, counter))

    def uninstall(self) -> None:
        for module, attr, function in reversed(self._saved):
            setattr(module, attr, function)
        self._saved.clear()


def run_command(argv: list[str], out: Path, err: Path) -> int | str:
    """Run ``wflens.cli.main(argv)`` with output captured to files."""
    with open(out, "w", encoding="utf-8") as fo, open(err, "w", encoding="utf-8") as fe:
        with contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            try:
                cli.main(argv)
            except SystemExit as exc:
                return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, reported by the runner
                traceback.print_exc()
                return "exception"
    return 0


OVERHEAD_PAIRS = 5


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    t = time.perf_counter()
    catalog.default_catalog()
    default_catalog_s = time.perf_counter() - t
    start = time.perf_counter()

    # Tracing overhead: alternating untraced and traced scans, after one
    # warm-up scan so that lazy imports and caches count against neither.
    # The spans of these traced scans are thrown away.
    outputs = []
    scan_s: dict[str, list[float]] = {"untraced": [], "traced": []}
    for i in range(1 + 2 * OVERHEAD_PAIRS):
        kind = "warmup" if i == 0 else ("untraced", "traced")[i % 2]
        overhead = SpanRecorder()
        if kind == "traced":
            overhead.install()
        try:
            out, err = work / f"overhead{i}.out", work / f"overhead{i}.err"
            t = time.perf_counter()
            code = run_command(spec["scan_argv"], out, err)
            if kind != "warmup":
                scan_s[kind].append(time.perf_counter() - t)
        finally:
            overhead.uninstall()
        outputs.append(["scan", code, out.name, err.name])

    recorder = SpanRecorder()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        recorder.install()
        try:
            for label, argv in spec["commands"]:
                out, err = work / f"trace{passes}-{label}.out", work / f"trace{passes}-{label}.err"
                with recorder.span(f"cli.{label}"):
                    code = run_command(argv, out, err)
                outputs.append([label, code, out.name, err.name])
        finally:
            recorder.uninstall()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > spec["seconds"]:
            break

    (work / "spans.json").write_text(json.dumps({
        "import_s": IMPORT_S,
        "default_catalog_s": default_catalog_s,
        "passes": passes,
        "untraced_scan_s": scan_s["untraced"],
        "traced_scan_s": scan_s["traced"],
        "spans": recorder.spans,
        "counts": recorder.counts,
        "missing": sorted(set(recorder.missing)),
        "outputs": outputs,
    }), encoding="utf-8")


if __name__ == "__main__":
    main()
