"""Fixed CPU probe: how fast the core a process runs on is right now.

The host this benchmark runs on shares its cores with other tenants, and a
core's speed swings by 1.5 to 2 times for seconds to minutes at a time.
The probe is a fixed piece of interpreter work of the same kind as wflens'
own (small dicts and lists, string keys, sorting, a JSON round trip), so
it slows down with the host as the commands do.  Nothing here imports
wflens.
"""

from __future__ import annotations

import json
import statistics
import time

_DOC = [{"name": f"job{i}", "steps": [{"run": f"echo {j}", "with": {"a": str(j), "b": [1, 2, 3]}}
                                      for j in range(8)]} for i in range(20)]


def _work() -> None:
    rows = []
    for i in range(600):
        row = {f"k{j}": "v" * ((i + j) % 7) for j in range(6)}
        rows.append(sorted(row.items()))
    json.loads(json.dumps(_DOC))


def probe_s(repeats: int = 5) -> float:
    """Median seconds of ``repeats`` runs of the fixed work, on the calling process's core."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
