"""CLI: migrate a saved clone bundle to a destination platform.

Exit codes (CI discriminates on them):

- ``0`` — published: destination gate passed, stamped
  ``ditto-migration/1`` artifact written;
- ``1`` — work was spent but the migration was refused (destination
  gate failed, or re-tune exhausted its simulation budgets);
- ``2`` — refused at preflight with zero tuning work (blocking
  verdicts, missing source platform, or a corrupt/quarantined source
  bundle);
- ``3`` — the migration could not run at all (bad arguments, I/O).

``--preflight-json`` writes the verdict sheet even on refusal, so CI
can always upload the report artifact.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.bundle import MIGRATION_FORMAT
from repro.hw.platform import load_platform_spec, platform_by_name
from repro.migrate.engine import migrate_bundle
from repro.migrate.preflight import PreflightReport
from repro.telemetry.report import render_migration_document
from repro.util.errors import (
    ArtifactIntegrityError,
    MigrationError,
    ReproError,
)
from repro.validation import integrity
from repro.validation.gate import tolerance_arg

EXIT_PUBLISHED = 0
EXIT_REFUSED = 1
EXIT_PREFLIGHT = 2
EXIT_ERROR = 3


def _write_preflight(path: Optional[str],
                     report: Optional[PreflightReport]) -> None:
    if path and report is not None:
        integrity.write_json(path, report.to_dict())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.migrate",
        description="Migrate a saved clone bundle to a destination "
                    "platform: preflight, warm re-tune, destination "
                    "fidelity gate.")
    parser.add_argument("bundle", help="path to the source clone bundle")
    parser.add_argument("--destination", required=True,
                        help="destination platform name (built-in A/B/C "
                             "or registered via --platform-file)")
    parser.add_argument("--out", default=None,
                        help="output path for the migrated bundle "
                             "(default: <bundle>.migrated.json)")
    parser.add_argument("--source-platform", default=None,
                        help="override the bundle's embedded source "
                             "platform (required for legacy bundles)")
    parser.add_argument("--platform-file", action="append", default=[],
                        metavar="SPEC.json",
                        help="register an extra platform spec before "
                             "resolving names (repeatable)")
    parser.add_argument("--destination-nodes", type=int, default=None,
                        help="destination cluster size bound "
                             "(default: unconstrained)")
    parser.add_argument("--allow-degraded", action="store_true",
                        help="consolidate the tier DAG onto fewer nodes "
                             "instead of refusing at preflight")
    parser.add_argument("--seed", type=int, default=17,
                        help="re-tune/gate seed (default: 17)")
    parser.add_argument("--duration", type=float, default=0.25,
                        help="simulated seconds per measurement run "
                             "(default: 0.25)")
    parser.add_argument("--max-tune-iterations", type=int, default=5,
                        help="warm-started re-tune budget per tier "
                             "(default: 5)")
    parser.add_argument("--tolerance", action="append", default=[],
                        type=tolerance_arg, metavar="METRIC=REL",
                        help="override a destination-gate relative "
                             "tolerance, e.g. ipc=0.1 (repeatable)")
    parser.add_argument("--max-sim-events", type=int, default=None,
                        help="event-budget watchdog per measurement run")
    parser.add_argument("--sim-deadline", type=float, default=None,
                        help="sim-time deadline watchdog per run")
    parser.add_argument("--preflight-json", default=None,
                        help="write the preflight verdict sheet here "
                             "(written even when the migration refuses)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the verdict/fidelity tables")
    options = parser.parse_args(argv)

    try:
        for spec_path in options.platform_file:
            load_platform_spec(spec_path)
        destination = platform_by_name(options.destination)
        source = (platform_by_name(options.source_platform)
                  if options.source_platform else None)
    except (ReproError, OSError) as error:
        print(f"migration could not start: {error}", file=sys.stderr)
        return EXIT_ERROR

    out_path = options.out or f"{options.bundle}.migrated.json"
    try:
        result = migrate_bundle(
            options.bundle, destination, out_path,
            source_platform=source,
            destination_nodes=options.destination_nodes,
            allow_degraded=options.allow_degraded,
            seed=options.seed, duration_s=options.duration,
            max_tune_iterations=options.max_tune_iterations,
            tolerances=dict(options.tolerance),
            max_sim_events=options.max_sim_events,
            sim_deadline_s=options.sim_deadline,
        )
    except ArtifactIntegrityError as error:
        print(f"source bundle integrity failure: {error}",
              file=sys.stderr)
        return EXIT_PREFLIGHT
    except MigrationError as error:
        report = error.report
        if isinstance(report, PreflightReport):
            _write_preflight(options.preflight_json, report)
            if not options.quiet:
                print(report.summary())
        elif report is not None and not options.quiet:
            print(report.summary())
        print(f"migration refused at {error.stage or 'unknown'}: {error}",
              file=sys.stderr)
        return (EXIT_PREFLIGHT if error.stage == "preflight"
                else EXIT_REFUSED)
    except (ReproError, OSError) as error:
        print(f"migration failed to run: {error}", file=sys.stderr)
        return EXIT_ERROR

    _write_preflight(options.preflight_json, result.preflight)
    if not options.quiet:
        # The published artifact, read back through its stamp check,
        # is what the tables show.
        try:
            document = integrity.read_json(result.path,
                                           schema=MIGRATION_FORMAT)
        except (ArtifactIntegrityError, OSError) as error:
            print(f"published artifact unreadable: {error}",
                  file=sys.stderr)
            return EXIT_ERROR
        print(render_migration_document(document))
    print(f"migrated {options.bundle} → {result.path} "
          f"({result.preflight.source}→{result.preflight.destination}, "
          f"gate PASS)")
    return EXIT_PUBLISHED


if __name__ == "__main__":
    sys.exit(main())
