"""Seeded generator of GitHub Actions workflow corpora, with expected values.

Each workflow is built as a Python object first.  User-chosen keys (job
ids, env var names, matrix variables, action inputs, ...) are created as
:class:`Name` strings carrying the placeholder kind the generator chose
for them, and keys deliberately outside the GitHub Actions vocabulary are
:class:`Unknown` strings.  The expected values of a file are read off that
object, never from wflens:

- ``n_paths``: mapping entries plus sequence items, aliases expanded;
- ``constructs``: each path rendered with the chosen placeholders and
  ``[*]`` for list items, counted as a multiset;
- ``unknown``: the constructs at or below an :class:`Unknown` key;
- ``error``: for a deliberately malformed file, the line and column of the
  mark its corruption puts there (the message wording is not pinned).
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import yaml


class Name(str):
    """A key the workflow author chose; abstracts to ``<kind>``."""

    kind: str


class Unknown(str):
    """A key outside the workflow vocabulary (an unknown construct)."""


def _name(text: str, kind: str) -> Name:
    out = Name(text)
    out.kind = kind
    return out


class _Dumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    pass


def _represent_str(dumper: yaml.SafeDumper, value: str):
    style = "|" if "\n" in value else None
    return dumper.represent_scalar("tag:yaml.org,2002:str", str(value), style=style)


for _cls in (str, Name, Unknown):
    _Dumper.add_representer(_cls, _represent_str)

JOB_IDS = (
    "build", "test", "lint", "deploy", "docs", "release", "e2e", "coverage",
    "package", "publish", "integration", "unit", "check", "format", "security",
    "bench", "smoke", "nightly", "typecheck", "audit",
)
ENV_VARS = (
    "CI", "NODE_VERSION", "PYTHON_VERSION", "GO111MODULE", "RUST_BACKTRACE",
    "CARGO_TERM_COLOR", "FORCE_COLOR", "REGISTRY", "IMAGE_NAME", "DEBUG",
    "JAVA_OPTS", "TZ", "LANG", "HOMEBREW_NO_AUTO_UPDATE", "PIP_CACHE_DIR",
)
ACTIONS = {
    "actions/checkout@v4": ("fetch-depth", "submodules", "ref", "token", "path"),
    "actions/setup-node@v4": ("node-version", "cache", "registry-url"),
    "actions/setup-python@v5": ("python-version", "cache", "architecture"),
    "actions/cache@v4": ("path", "key", "restore-keys"),
    "actions/upload-artifact@v4": ("name", "path", "retention-days"),
    "actions/download-artifact@v4": ("name", "path"),
    "docker/build-push-action@v6": ("context", "push", "tags", "platforms"),
    "codecov/codecov-action@v4": ("token", "files", "flags", "fail_ci_if_error"),
    "actions/setup-go@v5": ("go-version", "cache"),
}
COMMANDS = (
    "npm ci", "npm test", "npm run build", "pytest -q", "make", "make test",
    "cargo build --release", "go test ./...", "tox -e py", "./gradlew check",
    "pip install -r requirements.txt", "bundle exec rake", "echo done",
)
MATRIX_VARS = {
    "os": ("ubuntu-latest", "windows-latest", "macos-latest"),
    "node": ("18", "20", "22"),
    "python": ("3.10", "3.11", "3.12"),
    "arch": ("x64", "arm64"),
    "go": ("1.21", "1.22"),
}
PERMISSIONS = (
    "actions", "checks", "contents", "deployments", "id-token", "issues",
    "packages", "pages", "pull-requests", "security-events", "statuses",
)
# Spellings the platform reads as the trigger key ("on").
ON_SPELLINGS = ("on", "'on'", '"on"', "true", "True", "yes", "ON")
UNKNOWN_RATE = 0.02
# Mixed corpora: lognormal sizes, median 80 paths, sigma 1.05, so that about
# 1% of files exceed 1000 paths; no file exceeds MAX_PATHS.
MEDIAN_PATHS = 80.0
SIGMA = 1.05
MAX_PATHS = 3000
MALFORMED_KINDS = ("tab", "colon", "flow_eof", "duplicate_key", "bad_alias")


def _pick(rng: random.Random, seq, k: int) -> list:
    return rng.sample(list(seq), min(k, len(seq)))


def _env(rng: random.Random, lo: int = 1, hi: int = 4) -> dict:
    return {_name(v, "var"): rng.choice(("1", "true", "x", "${{ secrets.TOKEN }}"))
            for v in _pick(rng, ENV_VARS, rng.randint(lo, hi))}


def _step(rng: random.Random) -> dict:
    step: dict = {}
    if rng.random() < 0.6:
        step["name"] = rng.choice(("Checkout", "Setup", "Install", "Build", "Test", "Upload"))
    if rng.random() < 0.45:
        action = rng.choice(sorted(ACTIONS))
        step["uses"] = action
        if rng.random() < 0.7:
            step["with"] = {_name(p, "param"): rng.choice(("0", "true", "18", "dist", "npm"))
                            for p in _pick(rng, ACTIONS[action], rng.randint(1, 3))}
    else:
        lines = rng.sample(COMMANDS, rng.randint(1, 4))
        step["run"] = lines[0] if len(lines) == 1 else "\n".join(lines) + "\n"
        if rng.random() < 0.2:
            step["shell"] = "bash"
        if rng.random() < 0.1:
            step["working-directory"] = "./app"
    if rng.random() < 0.15:
        step["id"] = f"s{rng.randint(0, 99)}"
    if rng.random() < 0.15:
        step["if"] = "github.event_name == 'push'"
    if rng.random() < 0.15:
        step["env"] = _env(rng, 1, 2)
    if rng.random() < 0.05:
        step["continue-on-error"] = True
    if rng.random() < 0.05:
        step["timeout-minutes"] = 10
    return step


def _job(rng: random.Random, n_steps: int, job_ids: list[str], shared: dict, tiny: bool) -> dict:
    job: dict = {}
    if rng.random() < 0.4:
        job["name"] = rng.choice(("Build", "Test suite", "Lint", "Deploy"))
    runs_on = rng.random()
    if runs_on < 0.75 or tiny:
        job["runs-on"] = rng.choice(("ubuntu-latest", "ubuntu-22.04", "windows-latest"))
    elif runs_on < 0.9:
        job["runs-on"] = shared["runs_on"]
    else:
        job["runs-on"] = {"group": "large", "labels": ["linux", "x64"]}
    if tiny:
        job["steps"] = [_step(rng) for _ in range(n_steps)]
        return job
    if job_ids and rng.random() < 0.4:
        needs = _pick(rng, job_ids, rng.randint(1, 2))
        job["needs"] = needs[0] if len(needs) == 1 and rng.random() < 0.5 else needs
    if rng.random() < 0.15:
        job["if"] = "github.ref == 'refs/heads/main'"
    if rng.random() < 0.2:
        job["timeout-minutes"] = rng.choice((10, 30, 60))
    if rng.random() < 0.05:
        job["continue-on-error"] = True
    if rng.random() < 0.25:
        job["env"] = shared["env"] if rng.random() < 0.4 else _env(rng)
    if rng.random() < 0.1:
        job["outputs"] = {_name("version", "id"): "${{ steps.v.outputs.version }}"}
    if rng.random() < 0.15:
        job["permissions"] = {p: rng.choice(("read", "write")) for p in _pick(rng, PERMISSIONS, 2)}
    if rng.random() < 0.35:
        matrix = {_name(v, "var"): list(MATRIX_VARS[v][: rng.randint(1, len(MATRIX_VARS[v]))])
                  for v in _pick(rng, MATRIX_VARS, rng.randint(1, 3))}
        strategy: dict = {"matrix": matrix}
        if rng.random() < 0.4:
            strategy["fail-fast"] = False
        if rng.random() < 0.15:
            strategy["max-parallel"] = 2
        job["strategy"] = strategy
    if rng.random() < 0.08:
        container: dict = {"image": "node:20"}
        if rng.random() < 0.5:
            container["env"] = _env(rng, 1, 2)
        if rng.random() < 0.3:
            container["options"] = "--cpus 2"
        if rng.random() < 0.3:
            container["ports"] = [80]
        if rng.random() < 0.3:
            container["volumes"] = ["/data:/data"]
        job["container"] = container
    if rng.random() < 0.08:
        services = {}
        for sid in _pick(rng, ("postgres", "redis", "mysql"), rng.randint(1, 2)):
            service: dict = {"image": f"{sid}:latest", "ports": [rng.choice((5432, 6379, 3306))]}
            if rng.random() < 0.5:
                service["env"] = _env(rng, 1, 2)
            services[_name(sid, "s_id")] = service
        job["services"] = services
    if rng.random() < 0.06:
        job["environment"] = "production" if rng.random() < 0.5 else {
            "name": "staging", "url": "https://staging.example.com"}
    steps = [_step(rng) for _ in range(n_steps)]
    if steps and rng.random() < 0.3:
        steps[0] = shared["checkout"]
    job["steps"] = steps
    return job


def _reusable_job(rng: random.Random) -> dict:
    job: dict = {"uses": "org/shared/.github/workflows/ci.yml@main"}
    job["with"] = {_name(p, "param"): "x" for p in _pick(rng, ("target", "version", "debug"), 2)}
    job["secrets"] = "inherit" if rng.random() < 0.5 else {_name("token", "id"): "${{ secrets.T }}"}
    return job


def _triggers(rng: random.Random, tiny: bool):
    roll = rng.random()
    if roll < 0.15 or tiny and roll < 0.5:
        return rng.choice(("push", "pull_request", "workflow_dispatch"))
    if roll < 0.3 or tiny:
        return _pick(rng, ("push", "pull_request", "workflow_dispatch", "release"), 2)
    on: dict = {}
    if rng.random() < 0.8:
        push: dict = {}
        for key in _pick(rng, ("branches", "tags", "paths", "branches-ignore", "paths-ignore"),
                         rng.randint(0, 2)):
            push[key] = _pick(rng, ("main", "v*", "src/**", "docs/**", "release/*"), rng.randint(1, 3))
        on["push"] = push or None
    if rng.random() < 0.7:
        pr: dict = {}
        if rng.random() < 0.6:
            pr["branches"] = ["main"]
        if rng.random() < 0.3:
            pr["types"] = _pick(rng, ("opened", "synchronize", "reopened", "labeled"), 2)
        if rng.random() < 0.2:
            pr["paths"] = ["src/**"]
        on["pull_request"] = pr or None
    if rng.random() < 0.3:
        if rng.random() < 0.5:
            on["workflow_dispatch"] = None
        else:
            inputs = {}
            for iid in _pick(rng, ("environment", "debug", "version"), rng.randint(1, 2)):
                inputs[_name(iid, "id")] = {
                    "description": f"The {iid}", "required": rng.random() < 0.5,
                    "type": "string", "default": "x"}
            on["workflow_dispatch"] = {"inputs": inputs}
    if rng.random() < 0.2:
        on["schedule"] = [{"cron": "0 3 * * *"}]
    if rng.random() < 0.08:
        on["release"] = {"types": ["published"]}
    if rng.random() < 0.05:
        on["issues"] = {"types": ["opened"]}
    if rng.random() < 0.05:
        on["merge_group"] = None
    if rng.random() < 0.05:
        on["workflow_call"] = {
            "inputs": {_name("target", "id"): {"type": "string"}},
            "outputs": {_name("result", "id"): {"value": "${{ jobs.build.outputs.r }}"}},
            "secrets": {_name("token", "id"): None},
        }
    return on or "push"


def count_paths(node) -> int:
    if isinstance(node, dict):
        return sum(1 + count_paths(v) for v in node.values())
    if isinstance(node, list):
        return sum(1 + count_paths(v) for v in node)
    return 0


def _inject_unknown(rng: random.Random, doc: dict, n: int) -> None:
    """Add ``n`` keys no catalog knows, at workflow, job and step level."""
    jobs = list(doc["jobs"].values())
    for i in range(n):
        key = Unknown(f"x-bench-{i}")
        value = rng.choice(("on", "meta", {"owner": "team", "tier": 2}))
        where = rng.random()
        if where < 0.3:
            target = doc
        else:
            job = rng.choice(jobs)
            steps = job.get("steps")
            target = rng.choice(steps) if steps and where >= 0.65 else job
        target[key] = value


def build_workflow(rng: random.Random, target_paths: int, tiny: bool = False) -> dict:
    """A workflow object of roughly ``target_paths`` paths."""
    shared = {
        "env": _env(rng, 2, 3),
        "runs_on": ["self-hosted", "linux"],
        "checkout": {"uses": "actions/checkout@v4", "with": {_name("fetch-depth", "param"): 0}},
    }
    doc: dict = {}
    if rng.random() < 0.8:
        doc["name"] = rng.choice(("CI", "Release", "Docs", "Nightly", "Lint"))
    if not tiny and rng.random() < 0.05:
        doc["run-name"] = "Deploy by ${{ github.actor }}"
    doc["on"] = _triggers(rng, tiny)
    if not tiny:
        if rng.random() < 0.3:
            doc["permissions"] = "read-all" if rng.random() < 0.3 else {
                p: "read" for p in _pick(rng, PERMISSIONS, rng.randint(1, 3))}
        if rng.random() < 0.35:
            doc["env"] = _env(rng)
        if rng.random() < 0.2:
            doc["concurrency"] = "${{ github.workflow }}-${{ github.ref }}"
        if rng.random() < 0.1:
            doc["defaults"] = {"run": {"shell": "bash", "working-directory": "src"}}
    jobs: dict = {}
    doc["jobs"] = jobs
    total = count_paths(doc)
    used: list[str] = []
    while True:
        base = JOB_IDS[len(used) % len(JOB_IDS)]
        job_id = base if len(used) < len(JOB_IDS) else f"{base}-{len(used)}"
        remaining = target_paths - total
        if tiny:
            n_steps = max(1, min(6, remaining // 4))
        else:
            n_steps = max(1, min(int(rng.lognormvariate(1.6, 0.5)), max(1, remaining // 6)))
        if not tiny and used and rng.random() < 0.04:
            job = _reusable_job(rng)
        else:
            job = _job(rng, n_steps, list(used), shared, tiny)
        jobs[_name(job_id, "id")] = job
        total += 1 + count_paths(job)
        used.append(job_id)
        if tiny or total >= target_paths:
            break
    if tiny:
        steps = job["steps"]
        while len(steps) > 1 and total > target_paths:
            total -= 1 + count_paths(steps.pop())
    n_unknown = sum(1 for _ in range(total) if rng.random() < UNKNOWN_RATE)
    if n_unknown:
        _unshare(doc)
        _inject_unknown(rng, doc, n_unknown)
    return doc


def _unshare(doc: dict) -> None:
    """Give every job and step its own dict so injected keys stay local."""
    for job_id, job in list(doc["jobs"].items()):
        job = dict(job)
        if "steps" in job:
            job["steps"] = [dict(s) for s in job["steps"]]
        doc["jobs"][job_id] = job


def expected_values(doc: dict) -> dict:
    """n_paths, construct multiset and unknown constructs of a workflow object."""
    counts: Counter = Counter()
    unknown: set[str] = set()

    def walk(node, prefix: str, outside: bool) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                token = f"<{key.kind}>" if isinstance(key, Name) else str(key)
                construct = f"{prefix}.{token}" if prefix else token
                out = outside or isinstance(key, Unknown)
                counts[construct] += 1
                if out:
                    unknown.add(construct)
                walk(value, construct, out)
        elif isinstance(node, list):
            construct = prefix + "[*]"
            for item in node:
                counts[construct] += 1
                if outside:
                    unknown.add(construct)
                walk(item, construct, outside)

    walk(doc, "", False)
    return {
        "n_paths": sum(counts.values()),
        "constructs": dict(counts),
        "unknown": sorted(unknown),
    }


def render(rng: random.Random, doc: dict) -> str:
    flow = None if rng.random() < 0.6 else False
    text = yaml.dump(doc, Dumper=_Dumper, sort_keys=False, default_flow_style=flow, width=100)
    spelling = rng.choice(ON_SPELLINGS)
    return re.sub(r"^'on':", spelling + ":", text, count=1, flags=re.M)


def corrupt(rng: random.Random, text: str) -> tuple[str, dict]:
    """Break a rendered workflow in a way whose error mark is known.

    Returns the broken text and the expected ``{"line", "column"}`` (1-based).
    Insertions go before a top-level key line, which is never inside a block
    scalar, so the inserted line is the first thing the parser rejects.
    """
    lines = text.splitlines(keepends=True)
    kind = rng.choice(MALFORMED_KINDS)
    top = [i for i, line in enumerate(lines) if line[:1] not in (" ", "-", "\n", "")]
    at = rng.choice(top)
    if kind == "flow_eof":
        return text + "x-flow: [a, b\n", {"kind": kind, "line": len(lines) + 2, "column": 1}
    if kind == "duplicate_key":
        return text + "jobs: {}\n", {"kind": kind, "line": len(lines) + 1, "column": 1}
    inserted, column = {
        "tab": ("\tx-tab: 1\n", 1),
        "colon": ("x-bad: a: b\n", 9),
        "bad_alias": ("x-al: *nope\n", 7),
    }[kind]
    lines.insert(at, inserted)
    return "".join(lines), {"kind": kind, "line": at + 1, "column": column}


def generate_corpus(out_dir: Path, n_files: int, seed: int, *, tiny: bool = False,
                    malformed_rate: float = 0.01, shards: int = 1) -> dict:
    """Write a corpus of repository checkouts under ``out_dir``.

    Files sit at ``<out_dir>/s<K>/r<NNNN>/.github/workflows/<name>.yml``,
    one to four per repository, with repository N in shard N mod
    ``shards``.  Returns ``{"dir", "files": {relpath: expected}, "bytes",
    "shards"}``: ``dir`` and every ``relpath`` are relative to
    ``out_dir.parent`` (the working directory the commands run in),
    ``expected`` holds either the values of :func:`expected_values` or
    ``{"error": mark}``, and ``shards`` lists each shard as a corpus of its
    own (``dir``, ``files``, ``bytes``).
    """
    rng = random.Random(seed)
    # Sizes sit at fixed quantiles of the distribution, so every seed gives
    # the same total work and the same tail; the seed picks their order and
    # everything inside the files.
    quantiles = [(i + 0.5) / n_files for i in range(n_files)]
    if tiny:
        targets = [round(10 + 30 * q) for q in quantiles]
    else:
        z = NormalDist()
        targets = [min(MAX_PATHS, max(8, round(MEDIAN_PATHS * math.exp(SIGMA * z.inv_cdf(q)))))
                   for q in quantiles]
    rng.shuffle(targets)
    root = out_dir.parent
    parts = [{"dir": str((out_dir / f"s{k}").relative_to(root)), "files": {}, "bytes": 0}
             for k in range(shards)]
    n_malformed = max(1, round(n_files * malformed_rate)) if malformed_rate else 0
    malformed = set(rng.sample(range(n_files), n_malformed))
    repo, in_repo, repo_size = 0, 0, rng.randint(1, 4)
    for i in range(n_files):
        if in_repo == repo_size:
            repo, in_repo, repo_size = repo + 1, 0, rng.randint(1, 4)
        doc = build_workflow(rng, targets[i], tiny)
        text = render(rng, doc)
        if i in malformed:
            text, mark = corrupt(rng, text)
            expected: dict = {"error": mark}
        else:
            expected = expected_values(doc)
        part = parts[repo % shards]
        path = root / part["dir"] / f"r{repo:04d}" / ".github" / "workflows" / f"wf{in_repo}.yml"
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        path.write_bytes(data)
        part["bytes"] += len(data)
        part["files"][str(path.relative_to(root))] = expected
        in_repo += 1
    return {
        "dir": str(out_dir.relative_to(root)),
        "files": {f: e for part in parts for f, e in part["files"].items()},
        "bytes": sum(part["bytes"] for part in parts),
        "shards": parts,
    }

