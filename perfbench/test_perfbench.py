"""Self-test of the benchmark: smoke runs, metric names, wrapper hygiene.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        [(m.name, m.unit) for m in layers.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED,
                                  workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, seed, trace):
    result = _run(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in listed}


def _originals():
    out = {}
    for _, module_name, attr in layers.TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            owner, name = attr.split(".")
            out[attr] = vars(getattr(module, owner))[name]
        else:
            out[attr] = getattr(module, attr)
    return out


def test_wrappers_are_removed_when_the_traced_block_raises():
    layers.import_all_repro()
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.traced(layers.Tracer()) as patches:
            assert patches
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before
    assert layers.unrestored(patches) == []


def test_untraced_pass_after_traced_sees_originals_and_same_digests():
    layers.import_all_repro()
    before = _originals()
    workload = workloads.SingletierSweep(workloads.DEFAULT_SEED, tiny=True)

    def digests():
        outcomes = workload.run_pass()
        workload.finish(outcomes)
        assert not any(outcome.error for outcome in outcomes)
        return [outcome.digest for outcome in outcomes]

    untraced = digests()
    tracer = layers.Tracer()
    with layers.traced(tracer):
        traced = digests()
    assert tracer.calls["runtime.run"] == len(untraced)
    assert _originals() == before
    assert digests() == traced == untraced


def test_result_digest_matches_the_pinned_equivalence_digest():
    # tests/test_perf_equivalence.py pins this run's digest
    from repro import Deployment, ExperimentConfig, LoadSpec, build_memcached
    from repro.hw import PLATFORM_A
    from repro.runtime import run_experiment

    result = run_experiment(
        Deployment.single(build_memcached()), LoadSpec.open_loop(50_000),
        ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
    assert workloads.result_digest(result) == \
        "57267ad03685dd8c97418567725cc4c4b580bb373beb2de64c6a0a70f728169c"
