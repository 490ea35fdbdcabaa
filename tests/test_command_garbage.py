"""Every corpus and reliability command leaves no cyclic garbage.

``wflens.cli.main`` runs each command in-process, under
``gc.DEBUG_SAVEALL``, on a small generated corpus with malformed files and
on a 300-workflow runs/sizes pair from ``bench/gen_runs.py``; a collection
afterwards must find nothing to free.  What only the cyclic collector frees
costs the hot loops its passes, so this is the net under running them with
the collector off.
"""

import gc

import pytest

from wflens.cli import main

from conftest import bench_module

gen_runs = bench_module("gen_runs")

PAIR = ["--runs", "pair/runs.jsonl", "--sizes", "pair/sizes.jsonl", "--window", gen_runs.WINDOW]
COMMANDS = {
    "scan-json": ["scan", "corpus"],
    "scan-jsonl": ["scan", "--format", "jsonl", "corpus"],
    "scan-text": ["scan", "--format", "text", "corpus"],
    "lint-json": ["lint", "--format", "json", "corpus"],
    "lint-text": ["lint", "corpus"],
    "corpus-stats": ["corpus", "stats", "corpus"],
    "catalog-extract": ["catalog", "extract", "corpus"],
    "reliability-metrics": ["reliability", "metrics", "--runs", "pair/runs.jsonl", "--window", gen_runs.WINDOW],
    "reliability-compare": ["reliability", "compare", *PAIR],
    "reliability-regress-sizes": ["reliability", "regress", *PAIR],
    "reliability-regress-features": ["reliability", "regress", "--analysis", "features", *PAIR],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("garbage")
    bench_module("gen_corpus").generate_corpus(root / "corpus", 30, 1, malformed_rate=0.1)
    gen_runs.generate_reliability(root / "pair", 300, 1)
    return root


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_no_cyclic_garbage(command, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            main(COMMANDS[command])
        except SystemExit as exc:
            code = exc.code
        gc.collect()
        garbage = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert garbage == []
