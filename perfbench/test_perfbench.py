"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They use one prime of the `corpus` workload as a cheap pass.
"""
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from workloads import PRIMES, Corpus, PassResult  # noqa: E402


def binding_snapshot():
    """Identity of every callable binding of `nodal`, module and class level."""
    snap = {}
    for mod in tracer.nodal_modules():
        for attr, val in vars(mod).items():
            if callable(val):
                snap[(mod.__name__, attr)] = id(val)
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for a, v in vars(val).items():
                    snap[(mod.__name__, attr, a)] = id(v)
    return snap


def corpus_one_prime(seed=0):
    result = PassResult()
    Corpus()._one_prime(result, seed, PRIMES[0])
    return result


def test_traced_pass_restores_every_binding():
    before = binding_snapshot()
    with tracer.Tracer():
        assert "nodal.linalg.rref" in tracer.wrapped_bindings()
        assert "nodal.ring.Polynomial.__mul__" in tracer.wrapped_bindings()
        result = corpus_one_prime()
    assert result.failed == 0
    assert tracer.wrapped_bindings() == []
    assert binding_snapshot() == before


def test_bindings_restored_when_a_pass_raises():
    import nodal

    before = binding_snapshot()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            nodal.macaulay_gb([])
    assert binding_snapshot() == before


def test_untraced_pass_leaves_bindings_alone():
    before = binding_snapshot()
    assert corpus_one_prime().failed == 0
    assert binding_snapshot() == before


def test_traced_calls_repeat_exactly():
    seen = []
    for _ in range(2):
        t = tracer.Tracer()
        with t:
            assert corpus_one_prime().failed == 0
        counts = {k: v for k, (v, unit) in t.layer_metrics().items() if unit == "count"}
        seen.append((t.calls(), counts))
    assert seen[0] == seen[1]
    assert seen[0][1]["groebner.macaulay_gb.calls"] > 0


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = t.wrap("child", child)

    def parent():
        traced_child()
        traced_child()
        time.sleep(0.01)

    t.wrap("parent", parent)()
    calls, incl, self_s = t.span("parent")
    assert t.span("child")[0] == 2 and calls == 1
    assert self_s == pytest.approx(incl - t.span("child")[1], abs=1e-9)
    assert 0.005 < self_s < incl


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_two_traced_runs_give_identical_counts():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    runs = []
    for _ in range(2):
        proc = run_bench(ROOT, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["correct"] and out["failed"] == 0
        assert {k: m["unit"] for k, m in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        runs.append({k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"})
    assert runs[0] == runs[1]


def test_untraced_run_reports_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    proc = run_bench(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 122 and out["failed"] == 0
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert "fail_ratio" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
