"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload socialnet_open --seed 1 \\
        --seconds 20 --trace 0

The program under test is ``src/repro`` of the same checkout; nothing
needs installing. The run:

1. sets up: imports ``repro``, builds the workload's operations from
   ``--seed`` and runs one untimed tiny pass of the same workload as a
   warm-up (process-level memo caches such as the kernel-block and
   branch-rate ``lru_cache`` are warm for the code paths it covers when
   timing starts);
2. with ``--trace 0``, times two more set-ups in child processes, then
   runs passes for ``--seconds`` seconds and reports the end-to-end
   metrics; with ``--trace 1``, runs untraced passes for half the time
   and traced passes (``perfbench/layers.py``) for the other half, and
   reports the per-layer metrics;
3. checks every operation's result digest: against ``expected.json`` for
   the pinned seed, and always against the run's first pass, so traced
   and untraced passes must agree.

The last stdout line is the result object; the line before it holds the
provenance (host, versions, seed, pass and sample counts, and figures
that are not metrics). Exit status is 0 when a result was printed, 2
when the checkout holds no program to run.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts before any import
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: set-ups timed per ``--trace 0`` run: this process plus child processes
SETUP_SAMPLES = 3
#: where passes write (fleet stores); removed at exit
SCRATCH_DIR = ".perfbench_tmp"


def _load_program():
    """Import ``repro`` from this checkout's ``src``, or None."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return None
    return repro


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not comparable to full runs)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    return parser.parse_args(argv)


class Run:
    """One invocation: set-up, timed passes, checks and the result."""

    def __init__(self, args, workloads, layers, scratch: Path) -> None:
        self.args = args
        self.layers = layers
        make = workloads.WORKLOADS[args.workload]
        self.workload = make(args.seed, tiny=args.tiny,
                             scratch_root=str(scratch))
        warm = make(args.seed, tiny=True, scratch_root=str(scratch))
        warm.finish(warm.run_pass())
        self.setup_s = time.perf_counter() - _T0
        pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        self.expected = ({} if args.tiny else
                         pinned.get(args.workload, {}).get(str(args.seed), {}))
        self.attempted = 0
        self.failures = []

    def passes(self, budget_s: float, tracer=None):
        """Run passes until the next would end after ``budget_s``."""
        walls, results = [], []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls) <= budget_s):
            if tracer is not None:
                tracer.reset()
            begin = time.perf_counter()
            outcomes = self.workload.run_pass()
            walls.append(time.perf_counter() - begin)
            layer = (self.layers.layer_values(tracer, _extras(outcomes))
                     if tracer is not None else None)
            self.workload.finish(outcomes)
            self._check(outcomes)
            results.append((outcomes, layer))
        return walls, results

    def _check(self, outcomes) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if not outcome.error:
                expected = self.expected.setdefault(outcome.name,
                                                    outcome.digest)
                if outcome.digest != expected:
                    outcome.error = (f"digest {outcome.digest[:16]} != "
                                     f"expected {expected[:16]}")
            if outcome.error:
                self.failures.append(f"{outcome.name}: {outcome.error}")

    def setup_samples(self):
        """This process's set-up time plus that of fresh child processes."""
        samples = [self.setup_s]
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", "0",
                   "--setup-only"] + (["--tiny"] if self.args.tiny else [])
        for _ in range(SETUP_SAMPLES - 1):
            child = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=120, check=True)
            samples.append(float(child.stdout.strip().splitlines()[-1]))
        return samples


def _extras(outcomes):
    extras = {}
    for outcome in outcomes:
        for key, value in outcome.extras.items():
            extras[key] = extras.get(key, 0) + value
    return extras


def _request_rate(outcomes) -> float:
    host_s = sum(outcome.sim_host_s for outcome in outcomes)
    completed = sum(outcome.completed for outcome in outcomes)
    return completed / host_s if host_s else 0.0


def _tail(samples):
    """Highest listed percentile with at least ten samples above it."""
    for percentile in (99, 95, 90, 75, 50):
        if len(samples) * (100 - percentile) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            return {"percentile": percentile,
                    "value": cuts[percentile - 1]}
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None     # a plain checkout carries no history
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    repro = _load_program()
    if repro is None:
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    import numpy

    from perfbench import layers, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # per process: set-up children must not share the parent's files
    scratch = ROOT / SCRATCH_DIR / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workloads, layers, scratch)
        if args.setup_only:
            print(repr(run.setup_s))
            return 0
        provenance = {
            "git_sha": _git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "workload": args.workload,
            "seed": args.seed,
            "default_seed": workloads.DEFAULT_SEED,
            "held_out_seed": workloads.HELD_OUT_SEED,
            "pinned_digests": bool(run.expected),
            "tiny": args.tiny,
            "trace": args.trace,
        }
        if args.trace:
            metrics = _traced(run, provenance)
        else:
            metrics = _untraced(run, provenance)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()      # only once no process uses it
    provenance["failed_op_ratio"] = len(run.failures) / run.attempted
    provenance["failures"] = run.failures[:20]
    provenance["digests"] = run.expected
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


def _untraced(run, provenance):
    setup = run.setup_samples()
    walls, results = run.passes(run.args.seconds)
    rates = [_request_rate(outcomes) for outcomes, _ in results]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # one pass: the digests make every pass identical, and averaging a
    # varying number of passes would move the last digit
    fidelity = [outcome.extras["fidelity_error"] for outcome in results[0][0]
                if "fidelity_error" in outcome.extras]
    provenance.update({
        "passes": len(walls),
        "ops_per_pass": len(results[0][0]),
        "wall_s_samples": walls,
        "wall_s_tail": _tail(walls),
        "setup_s_samples": setup,
        # deterministic: a change that only speeds things up leaves it
        # exactly unchanged (the op digests pin it too)
        "clone_fidelity_error": (statistics.fmean(fidelity)
                                 if fidelity else None),
    })
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "sim_requests_per_s": _metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _traced(run, provenance):
    layers = run.layers
    half = run.args.seconds / 2
    plain_walls, _ = run.passes(half)
    tracer = layers.Tracer()
    with layers.traced(tracer) as patches:
        traced_walls, results = run.passes(half, tracer)
    leftover = layers.unrestored(patches)
    if leftover:
        run.failures.append(f"attributes left patched: {leftover}")
    provenance.update({
        "passes": len(plain_walls) + len(traced_walls),
        "untraced_wall_s_samples": plain_walls,
        "traced_wall_s_samples": traced_walls,
        "patched_attributes": len(patches),
    })
    per_pass = [layer for _, layer in results]
    metrics = {}
    for spec in layers.PER_LAYER:
        if spec.name == "trace.overhead_ratio":
            value = (statistics.median(traced_walls)
                     / statistics.median(plain_walls) - 1.0)
        elif spec.unit == "count":
            # identical in every pass unless the program is not deterministic
            value = statistics.median_low(layer[spec.name]
                                          for layer in per_pass)
        else:
            value = statistics.median(layer[spec.name] for layer in per_pass)
        metrics[spec.name] = _metric(value, spec.unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
