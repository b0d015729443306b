"""Top-down microarchitectural cycle accounting (Yasin 2014; paper Fig. 2).

Every pipeline slot (``issue_width`` per cycle) is attributed to one of
four top-level buckets: Retiring, Front-end Bound, Bad Speculation, and
Back-end Bound. The paper uses this breakdown both to pick which features
to clone (Fig. 2's IX/BB/IM/DM/DD annotations) and to validate the clones
(Fig. 8's CPI breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class TopDownBreakdown:
    """Slot counts per top-level top-down bucket."""

    retiring: float
    frontend: float
    bad_speculation: float
    backend: float

    def __post_init__(self) -> None:
        if (self.retiring < -1e-9 or self.frontend < -1e-9
                or self.bad_speculation < -1e-9 or self.backend < -1e-9):
            for name in ("retiring", "frontend", "bad_speculation", "backend"):
                if getattr(self, name) < -1e-9:
                    raise ConfigurationError(f"negative slot count for {name}")

    @property
    def total_slots(self) -> float:
        """All issue slots accounted for."""
        return self.retiring + self.frontend + self.bad_speculation + self.backend

    def cpi_contributions(self, instructions: float, issue_width: int) -> dict:
        """Split CPI into per-bucket contributions (Fig. 8's stacked bars).

        ``CPI = cycles / instructions`` and ``cycles = slots / width``, so
        each bucket's share of slots maps to a share of CPI.
        """
        if instructions <= 0:
            raise ConfigurationError("instructions must be positive")
        if issue_width <= 0:
            raise ConfigurationError("issue_width must be positive")
        return {
            name: slots / issue_width / instructions
            for name, slots in (
                ("retiring", self.retiring),
                ("frontend", self.frontend),
                ("bad_speculation", self.bad_speculation),
                ("backend", self.backend),
            )
        }

    def accumulate(self, other: "TopDownBreakdown") -> None:
        """Add ``other`` into this breakdown in place.

        One float addition per bucket. Only for a breakdown its
        owner never shares or hashes: the running total of
        :meth:`repro.hw.core.BlockTiming.accumulate`.
        """
        fields = self.__dict__
        fields["retiring"] += other.retiring
        fields["frontend"] += other.frontend
        fields["bad_speculation"] += other.bad_speculation
        fields["backend"] += other.backend

    @staticmethod
    def unchecked(retiring: float, frontend: float, bad_speculation: float,
                  backend: float) -> "TopDownBreakdown":
        """A breakdown built without validation.

        For sums and products of values already known to be
        non-negative (the core model's slot split).
        """
        result = object.__new__(TopDownBreakdown)
        # object.__setattr__ (not a __dict__ update) keeps the object as
        # compact as one built by __init__
        setattr_ = object.__setattr__
        setattr_(result, "retiring", retiring)
        setattr_(result, "frontend", frontend)
        setattr_(result, "bad_speculation", bad_speculation)
        setattr_(result, "backend", backend)
        return result

    @staticmethod
    def zero() -> "TopDownBreakdown":
        """An empty breakdown."""
        return TopDownBreakdown(0.0, 0.0, 0.0, 0.0)
