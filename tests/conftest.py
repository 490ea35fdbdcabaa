import importlib.util
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import wflens
from wflens.reliability import SIZE_METRICS, RunRecord

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parents[1] / "bench"

UTC = timezone.utc


def bench_module(name: str):
    """``bench/<name>.py``, loaded without putting ``bench`` on the path."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def catalog():
    return wflens.default_catalog()


@pytest.fixture(scope="session")
def ruleset():
    return wflens.default_ruleset()


@pytest.fixture(scope="session")
def risk_model():
    return wflens.default_risk_model()


@pytest.fixture(scope="session")
def node_ci_text():
    return (FIXTURES / "node_ci.yml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def node_ci_paths(node_ci_text):
    return wflens.enumerate_paths(wflens.parse_workflow(node_ci_text))


@pytest.fixture(scope="session")
def node_ci_bag(node_ci_paths, ruleset):
    return wflens.abstract_workflow(node_ci_paths, ruleset)


@pytest.fixture(scope="session")
def node_ci_metrics(node_ci_bag, catalog):
    return wflens.workflow_metrics(node_ci_bag, catalog)


def make_synthetic_corpus(seed: int = 20230814, n: int = 1000):
    """A seeded corpus where bigger workflows fail more and churn more.

    Failure probability climbs steeply with n_paths while run counts stay
    in a narrow band, so recovery gaps reflect failure persistence rather
    than run frequency.  Distinct commits grow with size via the sha pool.
    """
    rng = np.random.default_rng(seed)
    sizes: dict[str, dict[str, float]] = {m: {} for m in SIZE_METRICS}
    records: list[RunRecord] = []
    start = datetime(2023, 1, 1, tzinfo=UTC)
    for i in range(n):
        wid = f"wf{i:04d}"
        n_paths = int(np.clip(np.round(np.exp(rng.normal(3.4, 0.6))), 6, 400))
        n_constructs = max(4, round(n_paths**0.82))
        n_features = int(np.clip(round(1.5 * np.log(n_paths)), 2, 14))
        sizes["n_paths"][wid] = float(n_paths)
        sizes["n_constructs"][wid] = float(n_constructs)
        sizes["n_features"][wid] = float(n_features)
        sizes["path_construct_ratio"][wid] = n_paths / n_constructs
        p_fail = float(np.clip(1 / (1 + np.exp(-(-2.0 + 0.045 * (n_paths - 40)))), 0.03, 0.92))
        n_runs = int(rng.integers(10, 14))
        pool = max(2, round(n_runs * (0.3 + 0.7 * min(1.0, n_paths / 150.0))))
        days = np.sort(rng.uniform(0.0, 364.0, size=n_runs))
        for j, day in enumerate(days):
            conclusion = "failure" if rng.random() < p_fail else "success"
            records.append(
                RunRecord(
                    workflow_id=wid,
                    commit_sha=f"{wid}-c{j % pool}",
                    committed_at=start + timedelta(days=float(day)),
                    conclusion=conclusion,
                )
            )
    window = (start, start + timedelta(days=365))
    return sizes, records, window


@pytest.fixture(scope="session")
def synthetic_corpus():
    return make_synthetic_corpus()


def build_reliability_files(root: Path, n: int = 60) -> tuple[Path, Path]:
    """Deterministic scan-style sizes JSONL and matching runs JSONL.

    Sixty workflows whose failure draws and commit pools scale with size;
    integer arithmetic only, so the files are byte-stable across runs.
    """
    import json
    import math

    sizes_path = root / "sizes.jsonl"
    runs_path = root / "runs.jsonl"
    sizes_lines = []
    runs_lines = []
    for i in range(n):
        wid = f"repo/wf{i:02d}.yml"
        n_paths = 5 + (i * 13 + 3) % 116
        n_constructs = max(3, int(n_paths**0.8))
        n_features = min(14, max(2, int(1.5 * math.log(n_paths))))
        present = n_paths > 45
        sizes_lines.append(
            json.dumps(
                {
                    "file": wid,
                    "valid": True,
                    "n_paths": n_paths,
                    "n_constructs": n_constructs,
                    "n_features": n_features,
                    "path_construct_ratio": round(n_paths / n_constructs, 4),
                    "features": {
                        "commands": {
                            "present": present,
                            "structural_only": False,
                            "n_paths": n_paths // 8 if present else 0,
                        }
                    },
                    "unknown_constructs": [],
                },
                sort_keys=True,
            )
        )
        n_runs = 5 + i % 3
        p_fail = min(0.9, 0.08 + 0.005 * n_paths)
        pool = max(2, round(n_runs * (0.4 + 0.6 * min(1.0, n_paths / 120))))
        for j in range(n_runs):
            draw = ((i * 37 + j * 101 + 17) % 1000) / 1000.0
            day = (i * 7 + j * 53) % 360
            runs_lines.append(
                json.dumps(
                    {
                        "workflow_id": wid,
                        "commit_sha": f"{wid}-c{j % pool}",
                        "committed_at": f"2023-{1 + day // 30:02d}-{1 + day % 28:02d}T12:00:00Z",
                        "conclusion": "failure" if draw < p_fail else "success",
                    },
                    sort_keys=True,
                )
            )
    sizes_path.write_text("\n".join(sizes_lines) + "\n", encoding="utf-8")
    runs_path.write_text("\n".join(runs_lines) + "\n", encoding="utf-8")
    return sizes_path, runs_path
