"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import wl_free_groups
import wl_presentations
import wl_word_arith

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

child.import_package()


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's round so a test runs in seconds."""
    monkeypatch.setattr(wl_presentations, "TYPES", ("A3", "B3", "I2(5)"))
    monkeypatch.setattr(wl_word_arith, "REPEATS", 3)
    monkeypatch.setattr(wl_free_groups, "SIZES", range(3, 5))
    monkeypatch.setattr(wl_free_groups, "EMBED_RANKS", range(3, 4))


@pytest.mark.parametrize("name", ["presentations", "word_arith", "free_groups"])
def test_right_answers_pass(small, name):
    res = child.run(child.load_workload(name), seed=5, seconds=0, rounds=1)
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["failures"]


@pytest.mark.parametrize("name", ["presentations", "word_arith", "free_groups"])
def test_corrupted_answers_fail(small, name):
    """Negative control: every corrupted answer must be rejected."""
    res = child.run(child.load_workload(name), seed=5, seconds=0, rounds=1,
                    corrupt_every=1)
    assert res["failed"] == res["attempted"] > 0
    sparse = child.run(child.load_workload(name), seed=5, seconds=0, rounds=1,
                       corrupt_every=7)
    assert 0 < sparse["failed"] / sparse["attempted"] < 1


def test_spans_account_for_self_time(tmp_path):
    """Self times recomputed from the written spans match the tracer's, and
    every span lies inside its parent."""
    spans = tmp_path / "spans.tsv"
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--workload",
                           "free_groups", "--seed", "3", "--trace-rounds", "--trace",
                           "--spans", str(spans)],
                          capture_output=True, text=True, check=True, timeout=120)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    rows = [line.split("\t") for line in spans.read_text().splitlines()[1:]]
    start = {int(r[0]): float(r[5]) for r in rows}
    end = {int(r[0]): float(r[6]) for r in rows}
    self_s = {}
    for r in rows:
        k, parent, layer = int(r[0]), int(r[1]), r[3]
        self_s[layer] = self_s.get(layer, 0.0) + end[k] - start[k]
        if parent >= 0:
            assert start[parent] <= start[k] <= end[k] <= end[parent]
            player = rows[parent][3]
            self_s[player] -= end[k] - start[k]
    assert layers["trace.spans"] == len(rows)
    for name in ("free_actions", "embedding", "coxeter"):
        assert layers[f"{name}.self_s"] == pytest.approx(self_s.get(name, 0.0), abs=1e-5)
        assert layers[f"{name}.calls"] == sum(1 for r in rows if r[3] == name)
    assert layers["free_actions.calls"] > 0


def test_without_sources_exits_nonzero(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is nothing to
    measure: no result line, a nonzero exit code."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "word_arith", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_matrix_images_match_the_oracle(name):
    import random

    oracle = wl_word_arith.Oracle(name)
    rng = random.Random(0)
    for _ in range(20):
        word = tuple(rng.randrange(oracle.model.system.rank) for _ in range(9))
        assert oracle.image(word) == oracle.model.image_of_word(word)
