"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
simulation failures.  The full tree (documented in DESIGN.md):

- ``ReproError``
    - ``ConfigurationError`` — invalid construction/configuration
    - ``SimulationError`` — the DES engine reached an inconsistent state
    - ``ProfilingError`` — a profiler could not extract a feature
    - ``FaultInjectionError`` — an *injected* fault fired (disk IO error,
      node crash window, NIC down); deliberately distinct from
      ``SimulationError`` so resilience layers can retry injected faults
      without masking engine bugs
    - ``RpcTimeoutError`` — one RPC attempt exceeded its per-attempt
      timeout
    - ``RetryExhaustedError`` — a retry policy gave up; carries the last
      underlying failure as ``__cause__``
    - ``CircuitOpenError`` — a circuit breaker rejected a call without
      attempting it
    - ``LoadSheddedError`` — a request was rejected at admission because a
      service queue exceeded its shedding bound
    - ``TierExecutionError`` — one clone-pipeline tier failed after its
      retry budget; preserves the sibling tiers' outcomes
    - ``SimBudgetExceededError`` — a simulation watchdog tripped (event
      budget, sim-time deadline, or livelock detector); subclass of
      ``SimulationError`` and names the entry that was running
    - ``ArtifactIntegrityError`` — a persisted artifact (checkpoint,
      profile, clone bundle) failed its digest/structure check; the file
      is quarantined, never silently loaded
    - ``FidelityGateError`` — a finished clone failed its acceptance
      gate after the remediation ladder was exhausted; carries the
      per-metric ``FidelityReport`` and the (failing) clone result
    - ``JobStateError`` — an illegal fleet-job lifecycle transition was
      requested (e.g. publishing a cancelled job)
    - ``JobCancelledError`` — a fleet job was cancelled while running;
      raised at the next phase boundary to unwind the worker cleanly
    - ``LeaseFencedError`` — a fleet worker's lease epoch was
      superseded (the job was requeued and re-claimed while this
      worker looked dead); raised before any terminal transition or
      artifact publish so a zombie can never double-publish
    - ``MigrationError`` — a clone-bundle migration was refused;
      ``stage`` names where (``"preflight"``, ``"retune"``,
      ``"gate"``), ``blocking`` the objects that could not be carried
      to the destination, and ``report`` the preflight/fidelity report
      that justified the refusal
"""

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SimBudgetExceededError(SimulationError):
    """A simulation watchdog tripped before the run could finish.

    ``budget`` names which guard fired (``"max_events"``,
    ``"deadline"`` or ``"livelock"``), ``events`` how many queue
    entries had been dispatched, ``sim_time`` the simulated clock at
    the trip, and ``process`` the queue entry that was running or about
    to run — the prime suspect for the hang.
    """

    def __init__(self, message: str, *, budget: str = "",
                 events: int = 0, sim_time: float = 0.0,
                 process: str = "") -> None:
        super().__init__(message)
        self.budget = budget
        self.events = events
        self.sim_time = sim_time
        self.process = process


class ProfilingError(ReproError):
    """A profiler could not extract the requested feature."""


class FaultInjectionError(ReproError):
    """An injected fault fired (disk error, node crash, NIC down).

    ``kind`` names the fault class (``"disk_error"``, ``"node_down"``,
    ...) and ``scope`` the component it hit (a node or device name), so
    handlers and tests can assert on *which* fault surfaced.
    """

    def __init__(self, message: str, *, kind: str = "", scope: str = "") -> None:
        super().__init__(message)
        self.kind = kind
        self.scope = scope


class RpcTimeoutError(ReproError):
    """One RPC attempt exceeded its per-attempt timeout."""

    def __init__(self, message: str, *, target: str = "",
                 timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.target = target
        self.timeout_s = timeout_s


class RetryExhaustedError(ReproError):
    """A retry policy gave up after its final attempt.

    ``attempts`` counts tries actually made; the last underlying failure
    travels as ``__cause__`` (and ``last_error``).
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 last_error: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ReproError):
    """A circuit breaker rejected a call without attempting it."""

    def __init__(self, message: str, *, target: str = "") -> None:
        super().__init__(message)
        self.target = target


class LoadSheddedError(ReproError):
    """A request was rejected at admission (queue over the shed bound)."""

    def __init__(self, message: str, *, service: str = "",
                 queue_depth: int = 0) -> None:
        super().__init__(message)
        self.service = service
        self.queue_depth = queue_depth


class ArtifactIntegrityError(ReproError):
    """A persisted artifact failed its integrity check.

    ``path`` is the offending file, ``reason`` a short code
    (``"truncated"``, ``"digest_mismatch"``, ``"bad_header"``,
    ``"undecodable"``), and ``quarantined_to`` where the file was moved
    (empty when the file was left in place or could not be moved).
    """

    def __init__(self, message: str, *, path: str = "", reason: str = "",
                 quarantined_to: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.reason = reason
        self.quarantined_to = quarantined_to


class FidelityGateError(ReproError):
    """A clone failed its fidelity gate after remediation was exhausted.

    ``report`` is the final per-metric
    :class:`~repro.validation.gate.FidelityReport` (typed ``Any`` to
    keep this module dependency-free) and ``result`` the failing
    ``CloneResult``, so callers can inspect or salvage the clone.
    """

    def __init__(self, message: str, *, report: Any = None,
                 result: Any = None, attempts: int = 1) -> None:
        super().__init__(message)
        self.report = report
        self.result = result
        self.attempts = attempts


class JobStateError(ReproError):
    """An illegal fleet-job lifecycle transition was requested."""


class JobCancelledError(ReproError):
    """A fleet job was cancelled while its worker was running.

    Raised at the next phase boundary (profiling/tuning/validating) so
    the worker unwinds without writing a result; ``job_id`` names the
    job the cancellation hit.
    """

    def __init__(self, message: str, *, job_id: str = "") -> None:
        super().__init__(message)
        self.job_id = job_id


class LeaseFencedError(ReproError):
    """A fleet worker's lease epoch was superseded (zombie fencing).

    Raised when a worker holding fencing epoch ``epoch`` finds the
    job's lease gone or re-claimed at a higher epoch — meaning the
    fleet declared this worker dead and handed the job to someone
    else. The worker must stop without touching the record or
    publishing artifacts. ``current`` is the epoch now on the lease
    (None when the lease is gone entirely).
    """

    def __init__(self, message: str, *, job_id: str = "",
                 epoch: int = 0,
                 current: Optional[int] = None) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.epoch = epoch
        self.current = current


class MigrationError(ReproError):
    """A clone-bundle migration was refused.

    ``stage`` names the migration stage that refused (``"preflight"``,
    ``"retune"`` or ``"gate"``), ``blocking`` lists the per-tier
    objects (``"tier/knob"`` style names) that could not be carried to
    the destination, and ``report`` carries the typed report that
    justified the refusal — a ``PreflightReport`` for preflight
    refusals, a ``FidelityReport`` for destination-gate failures
    (typed ``Any`` to keep this module dependency-free).
    """

    def __init__(self, message: str, *, stage: str = "",
                 blocking: Optional[list] = None,
                 report: Any = None) -> None:
        super().__init__(message)
        self.stage = stage
        self.blocking = list(blocking) if blocking else []
        self.report = report


class TierExecutionError(ReproError):
    """One clone-pipeline tier failed after its retry budget.

    The pipeline preserves what the *other* tiers produced: ``outcomes``
    maps completed tier names to their ``TierOutcome`` objects (typed as
    ``Any`` here to keep this module dependency-free), so a caller can
    checkpoint or salvage partial progress instead of losing the run.
    """

    def __init__(self, message: str, *, tier: str, attempts: int = 1,
                 outcomes: Optional[Dict[str, Any]] = None,
                 last_error: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.tier = tier
        self.attempts = attempts
        self.outcomes = dict(outcomes) if outcomes else {}
        self.last_error = last_error
