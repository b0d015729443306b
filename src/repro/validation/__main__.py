"""Validate a saved clone bundle from the command line.

::

    python -m repro.validation bundle.json [--platform A] [--seed 17]
        [--duration 0.5] [--json report.json] [--tolerance ipc=0.1 ...]

Loads the bundle (integrity-checked: a corrupted file is quarantined
and the run fails), regenerates each tier with its stored tuned knobs,
runs every tier stand-alone at its profiled load on the chosen
platform, and gates the measured counters against the bundle's
``target_counters`` through a :class:`~repro.validation.gate
.FidelityGate`. Prints one per-metric table per tier and exits **0**
only when every tier passes — wire it straight into CI.

``--json`` additionally writes the full machine-readable report (one
:meth:`FidelityReport.to_dict` per tier plus a roll-up verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.app.service import Deployment, ServiceSpec
from repro.core.body_gen import GeneratorConfig
from repro.core.bundle import bundle_tuned_knobs, load_bundle
from repro.core.finetune import _strip_rpcs
from repro.core.skeleton_gen import generate_skeleton
from repro.core.body_gen import generate_program
from repro.hw.platform import _PLATFORMS, platform_by_name
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.util.errors import ArtifactIntegrityError, ReproError
from repro.validation import integrity
from repro.validation.gate import FidelityGate, FidelityReport, tolerance_arg


def validate_bundle(
    path: str,
    *,
    platform_name: str = "A",
    seed: int = 17,
    duration_s: float = 1.0,
    tolerances: Optional[Dict[str, float]] = None,
    gate: Optional[FidelityGate] = None,
) -> List[FidelityReport]:
    """Gate every tier of a saved bundle; returns one report per tier."""
    features_by_service, _entry, _placements = load_bundle(path)
    knobs_by_tier = bundle_tuned_knobs(path)
    if gate is None:
        gate = FidelityGate(dict(tolerances or {}))
    platform = platform_by_name(platform_name)
    reports: List[FidelityReport] = []
    for name in sorted(features_by_service):
        features = features_by_service[name]
        if features.target_counters is None:
            # Nothing to gate against: the bundle author stripped the
            # counters. Record an empty (vacuously passing) report so
            # the tier still shows up in the output.
            reports.append(FidelityReport(label=name,
                                          platform=platform_name,
                                          seed=seed, mode="counters"))
            continue
        config = GeneratorConfig()
        if name in knobs_by_tier:
            config = GeneratorConfig(knobs=knobs_by_tier[name])
        program, files = generate_program(features, config)
        spec = ServiceSpec(
            name=name,
            skeleton=generate_skeleton(features.threads, features.network),
            program=_strip_rpcs(program),
            request_mix=dict(features.handler_mix) or None,
            files=files,
        )
        result = run_experiment(
            Deployment.single(spec), features.profiled_load(),
            ExperimentConfig(platform=platform, duration_s=duration_s,
                             seed=seed))
        reports.append(gate.compare_counters(
            name, features.target_counters, result.service(name),
            platform=platform_name, seed=seed))
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="Gate a saved clone bundle against its profiled "
                    "target counters.")
    parser.add_argument("bundle", help="path to a ditto-clone-bundle JSON")
    parser.add_argument("--platform", default="A",
                        choices=sorted(_PLATFORMS),
                        help="platform model to replay on (default: A)")
    parser.add_argument("--seed", type=int, default=17,
                        help="replay seed (default: 17)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds per tier (default: 1.0)")
    parser.add_argument("--tolerance", action="append", default=[],
                        type=tolerance_arg, metavar="METRIC=REL",
                        help="override a relative tolerance, e.g. ipc=0.1 "
                             "(repeatable)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the machine-readable report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-tier tables")
    options = parser.parse_args(argv)

    try:
        reports = validate_bundle(
            options.bundle,
            platform_name=options.platform,
            seed=options.seed,
            duration_s=options.duration,
            tolerances=dict(options.tolerance),
        )
    except ArtifactIntegrityError as error:
        print(f"bundle integrity failure: {error}", file=sys.stderr)
        return 2
    except (ReproError, OSError) as error:
        print(f"validation failed to run: {error}", file=sys.stderr)
        return 2

    passed = all(report.passed for report in reports)
    if not options.quiet:
        for report in reports:
            print(report.summary())
            print()
    if options.json_path:
        document = {
            "format": "ditto-validation-report/1",
            "bundle": options.bundle,
            "platform": options.platform,
            "seed": options.seed,
            "passed": passed,
            "tiers": [report.to_dict() for report in reports],
        }
        integrity.write_json(options.json_path, document)
    print(f"{len(reports)} tier(s) gated on platform {options.platform}: "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
