"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import suite  # first: puts src/ on sys.path
import layers
import run
import speed
from repro.clients.combined import make_all_optimizations
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.memory import Memory
from repro.minicc import compile_source
from repro.workloads import benchmark

RUN_PY = os.path.join(suite.HERE, "run.py")


def _bench(*args, cwd=suite.ROOT):
    return subprocess.run(
        [sys.executable, RUN_PY, *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _spec():
    with open(os.path.join(suite.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_command():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    draw = suite.draw(suite.WORKLOADS[workload], 3)
    assert result["attempted"] == len(draw) * (2 if trace == "1" else 1)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        expected)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _originals():
    patched = [(owner, attr) for owner, attr, _ in layers.SPANS]
    patched += [(Memory, a) for a in layers.MEMORY_READS + layers.MEMORY_WRITES]
    return {(owner, attr): vars(owner)[attr] for owner, attr in patched}


@pytest.fixture(scope="module")
def traced_gcc():
    """guarded/gcc under the tracer: client hooks, shield, guard."""
    workload = suite.WORKLOADS["guarded"]
    pins = suite.load_reference()["pins"][workload.name]
    before = _originals()
    tracer = layers.Tracer("test")
    result = suite.run_program(workload, "gcc", pins, tracer=tracer)
    return workload, pins, before, tracer, result


def test_tracer_restores_originals_and_leaves_results_unchanged(traced_gcc):
    workload, pins, before, tracer, traced = traced_gcc
    assert tracer.spans and tracer.memory[0] > 0
    after = _originals()
    for key, original in before.items():
        assert after[key] is original, key
    plain = suite.run_program(workload, "gcc", pins)
    for field in ("cycles", "instructions", "output_sha256", "exit_code",
                  "events"):
        assert plain[field] == traced[field], field


def test_client_hooks_are_unwrapped():
    client = make_all_optimizations()
    tracer = layers.Tracer("test")
    tracer.install(client)
    assert "basic_block" in vars(client)
    tracer.uninstall()
    assert "basic_block" not in vars(client)
    assert "trace" not in vars(client)


def test_self_times_are_non_negative_and_sum_to_the_root(traced_gcc):
    tracer = traced_gcc[3]
    spans = tracer.spans
    own = tracer.self_ns()
    assert min(own) >= 0
    names = {r[layers.NAME] for r in spans}
    assert {"runtime", "execute", "bb_builder", "emit", "closures",
            "translate", "clients.bb_hook", "resilience.check"} <= names
    # Parents open before their children, so one forward pass finds
    # each span's root.
    root_of = []
    for index, record in enumerate(spans):
        parent = record[layers.PARENT]
        root_of.append(index if parent < 0 else root_of[parent])
    for root, record in enumerate(spans):
        if record[layers.PARENT] >= 0:
            continue
        subtree = sum(o for o, r in zip(own, root_of) if r == root)
        duration = record[layers.END] - record[layers.START]
        assert subtree + record[layers.MEM] == duration


@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_draws_are_seeded(workload):
    w = suite.WORKLOADS[workload]
    draws = [tuple(suite.draw(w, seed)) for seed in range(20)]
    assert draws == [tuple(suite.draw(w, seed)) for seed in range(20)]
    assert len({frozenset(d) for d in draws}) > 1
    for d in draws:
        assert len(d) == len(w.strata)
        assert all(sum(p in s for p in d) == 1 for s in w.strata)


def test_default_options_reproduce_the_wallclock_golden():
    with open(os.path.join(suite.ROOT, "BENCH_wallclock.json")) as f:
        golden = json.load(f)
    rows = [r for r in golden["results"] if r["config"] == "trace"]
    assert {r["workload"] for r in rows} == {"crafty", "vpr"}
    for row in rows:
        image = compile_source(benchmark(row["workload"]).source(1))
        result = DynamoRIO(Process(image), options=RuntimeOptions()).run()
        assert (result.cycles, result.instructions) == (
            row["cycles"], row["instructions"])


def test_churn_crafty_is_the_cache_pressure_fifo_cell():
    with open(os.path.join(suite.ROOT, "BENCH_cache_pressure.json")) as f:
        golden = json.load(f)
    (cell,) = [c for c in golden["results"]
               if (c["workload"], c["fraction"], c["policy"])
               == ("crafty", suite.CHURN_FRACTION, "fifo")]
    pins = suite.load_reference()["pins"]["churn"]
    assert pins["crafty"]["limit"] == cell["limit"]
    result = suite.run_program(suite.WORKLOADS["churn"], "crafty", pins)
    events = result["events"]
    assert result["cycles"] == cell["cycles"]
    assert events["bbs_built"] + events["traces_built"] == (
        cell["retranslations"])


def test_speed_probe_samples_inside_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        seconds = time.perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 5
    busy = sum(probe.samples)
    assert 0 < busy < seconds
    rate = speed.REFERENCE_KERNEL_S / (sum(probe.samples) / len(probe.samples))
    assert probe.calibrated(seconds) == pytest.approx((seconds - busy) * rate)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(suite.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(suite.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
