"""One fleet job, executed end to end (the scheduler's unit of work).

:func:`execute_job` is a module-level function of picklable arguments —
``(store_root, job_id)`` — so the scheduler can run it in-process, in a
thread, or in a process-pool worker interchangeably. It loads the job
record, replays the clone through :class:`~repro.core.cloner.DittoCloner`
with the store wired in as infrastructure:

- a :class:`_StoreObserver` turns the cloner's phase boundaries into
  persisted state-machine transitions (and raises
  :class:`~repro.util.errors.JobCancelledError` when a cancel marker
  appears, so cancellation lands on a clean phase edge);
- the job's checkpoint directory makes tier progress durable
  (:class:`~repro.core.pipeline.TierCheckpoint`), so a crashed job
  resumes instead of restarting;
- the store's ``cache/`` directory becomes the fleet-wide
  :class:`~repro.runtime.expcache.SharedExperimentCache`, so identical
  specs reuse each other's tuning measurements;
- profiling sessions are saved keyed by spec digest and reused outright
  by later jobs with the same spec.

When the scheduler passes the lease's fencing ``epoch``, the worker is
a *fenced* participant: a daemon thread refreshes the lease heartbeat
every ``heartbeat_interval_s``, and the epoch is re-checked at every
phase boundary, before artifact publish, and before every terminal
transition. A zombie — a worker falsely declared dead, whose job was
re-claimed at a newer epoch — gets :class:`~repro.util.errors.
LeaseFencedError` and reports a ``fenced`` outcome **without touching
the record**: the new owner's run is authoritative. Direct calls
without an epoch (tests, one-off tools) skip fencing entirely.

Tiers run serially *within* a job — the fleet parallelises across jobs,
and nesting a process pool inside a pool worker would deadlock. Output
is bit-identical to the one-shot path: the executor mode, cache
placement, fencing and heartbeats are not inputs to any random stream.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.cloner import CloneObserver, DittoCloner
from repro.fleet.chaos import ChaosPlan, crashpoint, maybe_active
from repro.fleet.job import JobResult, JobState, MigrationJobSpec
from repro.fleet.store import JobStore
from repro.telemetry.context import current_session
from repro.telemetry.session import Telemetry, WorkerTelemetry
from repro.util.errors import (
    ArtifactIntegrityError,
    JobCancelledError,
    LeaseFencedError,
    MigrationError,
)
from repro.util.spec_hash import stable_digest
from repro.validation.remediate import RemediationStep

__all__ = ["JobWorkerOutcome", "execute_job"]

#: cloner phase → job state the observer drives the record into
_PHASE_STATES = {
    "profiling": JobState.PROFILING,
    "tuning": JobState.TUNING,
    "validating": JobState.VALIDATING,
}

#: migration-engine stage → job state (see ``repro.migrate.engine``)
_MIGRATE_PHASE_STATES = {
    "preflight": JobState.MIGRATING_PREFLIGHT,
    "retune": JobState.MIGRATING_RETUNE,
    "gate": JobState.MIGRATING_GATE,
}


@dataclass
class JobWorkerOutcome:
    """What one worker invocation reports back (picklable)."""

    job_id: str
    state: JobState
    error: str = ""
    result_digest: str = ""
    #: remediation rungs climbed during this invocation
    attempts: int = 0
    #: True when the worker was stopped by lease fencing — the job now
    #: belongs to a newer claim and this invocation changed nothing
    fenced: bool = False
    #: spans + counters recorded by the worker-local session (None when
    #: the job ran under the scheduler's own ambient session)
    telemetry: Optional[WorkerTelemetry] = None


class _StoreObserver(CloneObserver):
    """Persist the cloner's phase boundaries as job transitions."""

    def __init__(self, store: JobStore, record,
                 fence: Optional[Callable[[], None]] = None) -> None:
        self.store = store
        self.record = record
        self.fence = fence

    def on_phase(self, phase: str, *, attempt: int = 0,
                 reason: str = "") -> None:
        if self.fence is not None:
            self.fence()
        if self.store.cancel_requested(self.record.job_id):
            raise JobCancelledError(
                f"job {self.record.job_id} cancelled "
                f"(marker observed entering {phase!r})",
                job_id=self.record.job_id)
        target = _PHASE_STATES.get(phase)
        if target is None:
            return
        if self.record.state is target:
            if target is not JobState.TUNING or attempt == 0:
                return  # idempotent re-entry; only remediation loops
        self.store.transition(self.record, target, reason=reason or phase)

    def on_remediation(self, step: RemediationStep) -> None:
        self.record.attempts += 1
        self.store.save(self.record)
        self.store._emit("remediation", job_id=self.record.job_id,
                         rung=self.record.attempts, reason=step.reason)


class _LeaseHeartbeat:
    """Refresh a job's lease heartbeat on an interval (daemon thread).

    Exits silently when the lease disappears or the epoch is
    superseded — the fence checks in the main execution path do the
    actual enforcement; the beat only keeps a live worker *looking*
    alive to :meth:`~repro.fleet.store.JobStore.recover`.
    """

    def __init__(self, store: JobStore, job_id: str, epoch: int) -> None:
        self.store = store
        self.job_id = job_id
        self.epoch = epoch
        self.interval_s = store.heartbeat_interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self.interval_s <= 0:
            return
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"ditto-heartbeat-{self.job_id}")
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                if not self.store.heartbeat(self.job_id, self.epoch):
                    return  # fenced or released: stop beating
            except BaseException:  # noqa: BLE001 — incl. chaos kills
                return  # a failed beat must never take the worker down
        return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)


def execute_job(store_root: str, job_id: str,
                collect_telemetry: bool = True, *,
                epoch: Optional[int] = None,
                chaos: Optional[ChaosPlan] = None) -> JobWorkerOutcome:
    """Run one job to a terminal-or-requeued state; never raises on
    ordinary failure (the failure becomes the job's state).

    ``epoch`` is the fencing epoch of the caller's lease claim (None
    disables fencing and heartbeats — the direct-call path). ``chaos``
    installs a chaos plan for the duration when this process has none
    yet (how a process-pool worker joins the scheduler's plan).

    ``BaseException`` (a kill signal, ``KeyboardInterrupt``, a chaos
    kill) does propagate — that is the crash the lease/recovery
    machinery exists for, and the record deliberately stays in its
    running state so :meth:`~repro.fleet.store.JobStore.recover` can
    requeue it.
    """
    worker_session: Optional[Telemetry] = None
    ambient = current_session()
    foreign = ambient is None or ambient.pid != os.getpid()
    if collect_telemetry and foreign:
        worker_session = Telemetry.for_worker()
        worker_session.activate()
    try:
        with maybe_active(chaos):
            outcome = _execute(store_root, job_id, epoch)
    finally:
        if worker_session is not None:
            worker_session.deactivate()
    if worker_session is not None:
        outcome.telemetry = worker_session.payload()
    return outcome


def _execute(store_root: str, job_id: str,
             epoch: Optional[int]) -> JobWorkerOutcome:
    store = JobStore(store_root)
    record = store.get(job_id)
    crashpoint("worker.start.post_load", job_id=job_id)
    if record.terminal:
        return JobWorkerOutcome(job_id=job_id, state=record.state,
                                error=record.error,
                                result_digest=record.result_digest)

    def fence() -> None:
        if epoch is not None:
            store.check_fence(job_id, epoch)

    beat = (_LeaseHeartbeat(store, job_id, epoch)
            if epoch is not None else None)
    if beat is not None:
        beat.start()
    try:
        return _execute_fenced(store, record, fence)
    except LeaseFencedError as error:
        return _fenced_outcome(store, record, error)
    finally:
        if beat is not None:
            beat.stop()


def _execute_fenced(store: JobStore, record,
                    fence: Callable[[], None]) -> JobWorkerOutcome:
    if isinstance(record.spec, MigrationJobSpec):
        return _execute_migration(store, record, fence)
    job_id = record.job_id
    fence()
    if store.cancel_requested(job_id):
        # Mid-batch cancellation: the marker landed after the scheduler
        # claimed the lease but before this worker picked the job up.
        # Resolve it here, before any phase work — the record goes
        # straight submitted → cancelled, no partial phases.
        record.error = "cancelled before start"
        store.transition(record, JobState.CANCELLED,
                         reason="cancelled before start")
        return JobWorkerOutcome(job_id=job_id, state=JobState.CANCELLED,
                                error=record.error)
    if record.running:
        # Re-dispatched after a pool degradation (or a requeue the
        # scheduler missed): rewind to submitted so the phase
        # transitions replay legally; tier checkpoints keep it cheap.
        store.transition(record, JobState.SUBMITTED, reason="resume")
    attempts_before = record.attempts
    request = record.spec.request
    observer = _StoreObserver(store, record, fence=fence)
    cloner = DittoCloner.for_request(
        request,
        observer=observer,
        checkpoint_dir=store.checkpoint_dir(job_id),
        shared_cache_dir=store.cache_dir,
        executor="serial",
    )
    profile = store.load_profile(record.spec_digest)
    try:
        if profile is not None:
            result = cloner.clone_from_profile(profile, request=request)
        else:
            result = cloner.clone(request)
    except LeaseFencedError:
        raise  # a zombie stops cold — the record is the new owner's
    except JobCancelledError as error:
        fence()
        record.error = str(error)
        store.transition(record, JobState.CANCELLED, reason="cancelled")
        return JobWorkerOutcome(job_id=job_id, state=JobState.CANCELLED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    except Exception as error:  # noqa: BLE001 — failures become job state
        fence()
        record.error = f"{type(error).__name__}: {error}"
        store.transition(record, JobState.FAILED,
                         reason=type(error).__name__)
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    report = result.report
    if profile is None and report.profile is not None:
        path = store.save_profile(record.spec_digest, report.profile)
        crashpoint("worker.profile.post_save", job_id=job_id, path=path)
    tuned: Dict[str, object] = {
        name: tuning.knobs for name, tuning in report.tuning.items()}
    result_digest = stable_digest({
        "synthetic": result.synthetic, "tuned_knobs": tuned})
    cache = report.cache_stats
    store._emit("job_cache", job_id=job_id, hits=cache.hits,
                misses=cache.misses, bypasses=cache.bypasses)
    job_result = JobResult(
        job_id=job_id,
        synthetic=result.synthetic,
        spec_digest=record.spec_digest,
        fidelity=(report.fidelity.to_dict()
                  if report.fidelity is not None else None),
        remediation=[step.reason for step in report.remediation],
        executor=report.executor,
        cache_stats=report.cache_stats,
        result_digest=result_digest,
        tuning_iterations={name: tuning.iterations
                           for name, tuning in report.tuning.items()},
    )
    try:
        fence()
        crashpoint("worker.publish.pre_artifact", job_id=job_id,
                   path=store.result_path(job_id))
        store.save_result(job_result)
        crashpoint("worker.publish.post_result", job_id=job_id,
                   path=store.result_path(job_id))
        _save_bundle(store, job_id, result,
                     source_platform=request.config.platform)
        record.result_digest = result_digest
        record.error = ""
        crashpoint("worker.publish.pre_transition", job_id=job_id)
        fence()
        store.transition(record, JobState.PUBLISHED,
                         reason=("gate passed"
                                 if report.fidelity is not None
                                 else "published"))
    except LeaseFencedError:
        raise
    except Exception as error:  # noqa: BLE001 — e.g. ENOSPC mid-publish
        fence()
        record.error = f"publish failed: {type(error).__name__}: {error}"
        store.transition(record, JobState.FAILED,
                         reason=type(error).__name__)
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    crashpoint("worker.publish.post_transition", job_id=job_id)
    return JobWorkerOutcome(job_id=job_id, state=JobState.PUBLISHED,
                            result_digest=result_digest,
                            attempts=record.attempts - attempts_before)


def _execute_migration(store: JobStore, record,
                       fence: Callable[[], None]) -> JobWorkerOutcome:
    """Run one migration job through the MIGRATING lifecycle states.

    Mirrors the clone path's robustness surface: fence + cancel checks
    at every stage boundary, crash requeue via the running-state
    rewind, refusals (preflight/retune/gate) landing in ``failed`` with
    the refusing stage in the reason, and a crashpoint-instrumented
    publish. Migrations are cheap enough to re-run whole, so there are
    no checkpoints — determinism makes the re-run byte-identical.
    """
    from repro.core.bundle import (
        deployment_from_bundle,
        write_bundle_document,
    )
    from repro.migrate.engine import migrate_request
    job_id = record.job_id
    fence()
    if store.cancel_requested(job_id):
        record.error = "cancelled before start"
        store.transition(record, JobState.CANCELLED,
                         reason="cancelled before start")
        return JobWorkerOutcome(job_id=job_id, state=JobState.CANCELLED,
                                error=record.error)
    if record.running:
        # Crash requeues normally rewind via recover(); this handles a
        # re-dispatch that raced the requeue, same as the clone path.
        store.transition(record, JobState.SUBMITTED, reason="resume")
    attempts_before = record.attempts

    def observer(phase: str, attempt: int = 0) -> None:
        fence()
        if store.cancel_requested(job_id):
            raise JobCancelledError(
                f"job {job_id} cancelled "
                f"(marker observed entering {phase!r})", job_id=job_id)
        target = _MIGRATE_PHASE_STATES.get(phase)
        if target is None:
            return
        left_preflight = (record.state is JobState.MIGRATING_PREFLIGHT
                          and target is not record.state)
        if attempt > 0 and target is JobState.MIGRATING_RETUNE:
            # A remediation rung (sim budget or gate failure).
            record.attempts += 1
            store.save(record)
            store._emit("remediation", job_id=job_id,
                        rung=record.attempts, reason=phase)
        elif record.state is target:
            return  # idempotent re-entry
        store.transition(record, target, reason=phase)
        if left_preflight:
            crashpoint("worker.migrate.post_preflight", job_id=job_id)

    try:
        result = migrate_request(record.spec.request, None,
                                 observer=observer)
    except LeaseFencedError:
        raise  # a zombie stops cold — the record is the new owner's
    except JobCancelledError as error:
        fence()
        record.error = str(error)
        store.transition(record, JobState.CANCELLED, reason="cancelled")
        return JobWorkerOutcome(job_id=job_id, state=JobState.CANCELLED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    except MigrationError as error:
        fence()
        stage = error.stage or "refused"
        record.error = (f"migration {stage}: {error}"
                        + (f" [blocking: {', '.join(error.blocking)}]"
                           if error.blocking else ""))
        store.transition(record, JobState.FAILED,
                         reason=f"migration_{stage}")
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    except ArtifactIntegrityError as error:
        fence()
        record.error = f"source bundle quarantined: {error}"
        store.transition(record, JobState.FAILED,
                         reason="source_quarantined")
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    except Exception as error:  # noqa: BLE001 — failures become job state
        fence()
        record.error = f"{type(error).__name__}: {error}"
        store.transition(record, JobState.FAILED,
                         reason=type(error).__name__)
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)

    result_digest = stable_digest(
        {"migration_document": result.document})
    try:
        fence()
        crashpoint("worker.migrate.publish.pre_write", job_id=job_id,
                   path=store.bundle_path(job_id))
        write_bundle_document(result.document, store.bundle_path(job_id))
        crashpoint("worker.migrate.publish.post_write", job_id=job_id,
                   path=store.bundle_path(job_id))
        job_result = JobResult(
            job_id=job_id,
            synthetic=deployment_from_bundle(store.bundle_path(job_id)),
            spec_digest=record.spec_digest,
            fidelity=result.fidelity.to_dict(),
            remediation=list(result.remediation),
            executor="serial",
            result_digest=result_digest,
            tuning_iterations=dict(result.tuning_iterations),
        )
        store.save_result(job_result)
        record.result_digest = result_digest
        record.error = ""
        crashpoint("worker.publish.pre_transition", job_id=job_id)
        fence()
        store.transition(record, JobState.PUBLISHED,
                         reason="gate passed")
    except LeaseFencedError:
        raise
    except Exception as error:  # noqa: BLE001 — e.g. ENOSPC mid-publish
        fence()
        record.error = f"publish failed: {type(error).__name__}: {error}"
        store.transition(record, JobState.FAILED,
                         reason=type(error).__name__)
        return JobWorkerOutcome(job_id=job_id, state=JobState.FAILED,
                                error=record.error,
                                attempts=record.attempts - attempts_before)
    crashpoint("worker.publish.post_transition", job_id=job_id)
    return JobWorkerOutcome(job_id=job_id, state=JobState.PUBLISHED,
                            result_digest=result_digest,
                            attempts=record.attempts - attempts_before)


def _fenced_outcome(store: JobStore, record,
                    error: LeaseFencedError) -> JobWorkerOutcome:
    """Report a zombie stop: flight event + counter, record untouched."""
    store._emit("worker_fenced", job_id=record.job_id,
                epoch=error.epoch,
                current_epoch=(-1 if error.current is None
                               else error.current))
    store.registry.counter(
        "ditto_fleet_workers_fenced_total",
        "zombie workers stopped by lease fencing", ()).inc()
    return JobWorkerOutcome(job_id=record.job_id, state=record.state,
                            error=str(error), fenced=True)


def _save_bundle(store: JobStore, job_id: str, result,
                 source_platform=None) -> None:
    """Write the shareable clone bundle next to the result.

    The job's platform is recorded as provenance so the published
    bundle can go straight into ``fleet migrate`` without the caller
    restating where its ``target_counters`` came from.
    """
    from repro.core.bundle import save_bundle
    report = result.report
    save_bundle(
        report.features,
        store.bundle_path(job_id),
        entry_service=result.synthetic.entry_service,
        placements={p.service: p.node
                    for p in result.synthetic.placements},
        tuned_knobs={name: tuning.knobs
                     for name, tuning in report.tuning.items()},
        source_platform=source_platform,
    )
