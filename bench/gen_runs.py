"""Seeded generator of a reliability input pair, with expected values.

Writes ``runs.jsonl`` (one CI run per line, in time order across
workflows, as a provider's run listing would be) and ``sizes.jsonl`` (one
scan-style record per workflow carrying the four size metrics and all 14
features).  The expected values are counted while the runs are drawn,
never from wflens:

- per workflow, ``n_runs_counted`` (success or failure runs inside the
  window), ``failures`` and ``n_commits`` (distinct shas inside the window);
- the number of ``compare`` cells and of ``regress`` rows for each analysis.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path
from statistics import NormalDist

FEATURES = (
    "triggers", "permissions", "workflow_reuse", "job_orchestration", "containers",
    "matrix_strategy", "commands", "services", "environment_variables", "naming",
    "context", "action_reuse", "step_orchestration", "deployment",
)
SIZE_METRICS = ("n_paths", "n_constructs", "n_features", "path_construct_ratio")
OUTCOMES = ("failure_rate", "n_commits", "ttr", "availability")
WINDOW = "2023-01-01..2024-01-01"
_ORIGIN = datetime(2022, 12, 1, tzinfo=timezone.utc)
_WINDOW_START = int((datetime(2023, 1, 1, tzinfo=timezone.utc) - _ORIGIN).total_seconds())
_WINDOW_END = int((datetime(2024, 1, 1, tzinfo=timezone.utc) - _ORIGIN).total_seconds())
_SPAN = int((datetime(2024, 2, 1, tzinfo=timezone.utc) - _ORIGIN).total_seconds())
MIN_RUNS = 3  # wflens' default --min-runs
USAGE_BAND = (0.05, 0.95)


_DAYS = [(_ORIGIN + timedelta(days=d)).strftime("%Y-%m-%d") for d in range(_SPAN // 86400 + 1)]


def _timestamp(offset: int) -> str:
    day, second = divmod(offset, 86400)
    hour, second = divmod(second, 3600)
    return f"{_DAYS[day]}T{hour:02d}:{second // 60:02d}:{second % 60:02d}Z"


def _at_quantiles(rng: random.Random, n: int, median: float, sigma: float) -> list[float]:
    """``n`` lognormal values at fixed quantiles, in an order the seed picks.

    Every seed then gives the same sizes and run counts, so the same total
    work; the seed decides which workflow gets which and everything else.
    """
    z = NormalDist()
    values = [median * math.exp(sigma * z.inv_cdf((i + 0.5) / n)) for i in range(n)]
    rng.shuffle(values)
    return values


def generate_reliability(out_dir: Path, n_workflows: int, seed: int) -> dict:
    """Write the pair under ``out_dir`` and return its expected values."""
    rng = random.Random(seed)
    feature_rate = {f: rng.uniform(0.25, 0.75) for f in FEATURES}
    path_counts = _at_quantiles(rng, n_workflows, 80, 0.9)
    run_counts = _at_quantiles(rng, n_workflows, 6, 0.8)
    runs: list[tuple[int, str]] = []
    sizes_lines: list[str] = []
    expected: dict[str, dict] = {}
    presence: dict[str, list[bool]] = {f: [] for f in FEATURES}
    per_path: dict[str, list[int]] = {f: [] for f in FEATURES}
    usable: list[bool] = []
    for i in range(n_workflows):
        wid = f"org{i % 97:02d}/repo{i:05d}/.github/workflows/ci.yml"
        n_paths = min(3000, max(8, round(path_counts[i])))
        n_constructs = max(4, min(n_paths, round(n_paths ** 0.82 * rng.uniform(0.85, 1.15))))
        features = {}
        for f in FEATURES:
            present = rng.random() < feature_rate[f]
            count = rng.randint(1, 12) if present else 0
            features[f] = {"present": present, "structural_only": False, "n_paths": count}
            presence[f].append(present)
            per_path[f].append(count)
        n_features = sum(1 for u in features.values() if u["present"])
        record = {
            "file": wid,
            "valid": True,
            "n_paths": n_paths,
            "n_constructs": n_constructs,
            "n_features": n_features,
            "path_construct_ratio": round(n_paths / n_constructs, 4),
            "features": features,
            "unknown_constructs": [],
        }
        sizes_lines.append(json.dumps(record, sort_keys=True))

        # Run counts are overdispersed, as CI histories are: with near-Poisson
        # commit counts the negative binomial's dispersion has no finite
        # estimate and wflens drops that fit's row.
        n_runs = 3 + min(80, round(run_counts[i]))
        eta = -1.6 + 0.5 * math.log(n_paths / 80) + 0.3 * features["containers"]["present"]
        p_fail = 1 / (1 + math.exp(-eta))
        pool = [f"{rng.getrandbits(40):010x}" for _ in range(max(1, round(n_runs * rng.uniform(0.4, 1.0))))]
        counted = failures = 0
        shas: set[str] = set()
        for _ in range(n_runs):
            offset = int(rng.random() * _SPAN)
            roll = rng.random()
            if roll < 0.05:
                conclusion = "cancelled"
            elif roll < 0.08:
                conclusion = "skipped"
            elif roll < 0.081:
                conclusion = "timed_out"  # folded into "other" by the loader
            else:
                conclusion = "failure" if rng.random() < p_fail else "success"
            sha = pool[int(rng.random() * len(pool))]
            if _WINDOW_START <= offset <= _WINDOW_END:
                shas.add(sha)
                if conclusion in ("success", "failure"):
                    counted += 1
                    failures += conclusion == "failure"
            runs.append((offset, f'{{"workflow_id": "{wid}", "commit_sha": "{sha}", '
                                 f'"committed_at": "{_timestamp(offset)}", "conclusion": "{conclusion}"}}'))
        expected[wid] = {"n_runs_counted": counted, "failures": failures, "n_commits": len(shas)}
        usable.append(counted >= MIN_RUNS)

    runs.sort(key=lambda r: r[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs.jsonl").write_text("".join(line + "\n" for _, line in runs), encoding="utf-8")
    (out_dir / "sizes.jsonl").write_text("".join(line + "\n" for line in sizes_lines), encoding="utf-8")

    n_usable = sum(usable)
    size_rows = 2 * len(SIZE_METRICS) if n_usable >= 3 else 0
    feature_rows = 0
    for f in FEATURES:
        rate = sum(presence[f]) / n_workflows
        if not USAGE_BAND[0] <= rate <= USAGE_BAND[1]:
            continue
        for column in (presence[f], per_path[f]):
            xs = [x for x, ok in zip(column, usable) if ok]
            if len(xs) >= 3 and len(set(xs)) >= 2:
                feature_rows += 2
    return {
        "window": WINDOW,
        "n_runs": len(runs),
        "workflows": expected,
        "compare_cells": len(SIZE_METRICS) * len(OUTCOMES),
        "regress_rows": {"sizes": size_rows, "features": feature_rows},
    }

