"""
Monthly snapshots and monotonic trends
======================================

"""

import json
import tempfile
from pathlib import Path

import wflens
from wflens.stats import mann_kendall

SMALL = "on: push\njobs:\n  a:\n    runs-on: ubuntu-latest\n    steps:\n      - run: make\n"
GROWN = """\
on:
  push:
    branches: [main]
permissions:
  contents: read
jobs:
  a:
    strategy:
      matrix:
        os: [linux, mac, windows]
    runs-on: ${{ matrix.os }}
    steps:
      - uses: actions/checkout@v4
      - run: make
      - run: make test
"""

# History manifests record when each workflow file revision was live.
# Snapshotting at the first instant of every month rebuilds the corpus
# as it stood back then.  The files live in a temporary directory that
# is removed once they have been read.
with tempfile.TemporaryDirectory(prefix="wflens-demo-") as tmp:
    root = Path(tmp)
    (root / "small.yml").write_text(SMALL)
    (root / "grown.yml").write_text(GROWN)

    manifest = root / "manifest.jsonl"
    rows = [
        {"workflow_id": "repo/ci", "file": "small.yml",
         "valid_from": "2023-01-01T00:00:00Z", "valid_to": "2023-04-10T00:00:00Z"},
        {"workflow_id": "repo/ci", "file": "grown.yml",
         "valid_from": "2023-04-10T00:00:00Z", "valid_to": None},
        {"workflow_id": "repo/docs", "file": "small.yml",
         "valid_from": "2023-02-20T00:00:00Z", "valid_to": None},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in rows))

    intervals = wflens.load_history_manifest(manifest)
    months = wflens.month_range("2023-01", "2023-08")
    snapshots = wflens.materialize_snapshots(intervals, months)

    catalog = wflens.default_catalog()
    cache = {}
    values_by_month = []
    for month in months:
        values = []
        for interval in snapshots[month]:
            if interval.file not in cache:
                metrics = wflens.scan_file(interval.file, catalog).metrics
                cache[interval.file] = float(metrics.n_paths)
            values.append(cache[interval.file])
        values_by_month.append((month, values))

series = wflens.evolution_series(values_by_month, "n_paths")
print("month     n  median paths")
for p in series.points:
    print(f"{p.month}  {p.n}  {p.median if p.median is not None else '-'}")

# The ci workflow grows in April, so the monthly median path count
# trends upward.  Mann-Kendall tests monotonicity without assuming a
# functional form.
medians = [p.median for p in series.points if p.n > 0]
result = mann_kendall(medians)
print(f"\nmann-kendall: tau={result.tau:.2f} p={result.p_value:.3f} -> {result.trend}")
