"""Phase timeline records for a VM migration.

Terminology follows Section IV-A of the paper exactly:

* ``ms`` — migration start (initiation begins);
* ``ts`` — transfer start (initiation ends);
* ``te`` — transfer end (activation begins);
* ``me`` — migration end (activation ends, VM runs on the target).

For live migrations the timeline additionally records the pre-copy rounds
and the stop-and-copy downtime window; for non-live migrations the
downtime spans the entire migration (the VM is suspended at ``ms``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PhaseError

__all__ = ["MigrationPhase", "RoundRecord", "PhaseTimeline"]


class MigrationPhase(enum.Enum):
    """The energy phases of Section III-D."""

    NORMAL = "normal"
    INITIATION = "initiation"
    TRANSFER = "transfer"
    ACTIVATION = "activation"


@dataclass(frozen=True)
class RoundRecord:
    """One pre-copy round of a live migration.

    ``index`` 0 is the full-memory round; the final stop-and-copy round is
    flagged with ``stop_and_copy=True`` (the VM is suspended while it runs).
    """

    index: int
    start: float
    duration: float
    pages_sent: int
    bytes_sent: int
    stop_and_copy: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise PhaseError(f"round duration must be non-negative, got {self.duration!r}")
        if self.pages_sent < 0 or self.bytes_sent < 0:
            raise PhaseError("round page/byte counts must be non-negative")

    @property
    def end(self) -> float:
        """Absolute end time of the round."""
        return self.start + self.duration


@dataclass
class PhaseTimeline:
    """Mutable record of a migration's phase boundaries.

    Built incrementally by the migration engine; consumers should call
    :meth:`validate` (or check :attr:`complete`) before relying on it.
    """

    ms: Optional[float] = None
    ts: Optional[float] = None
    te: Optional[float] = None
    me: Optional[float] = None
    downtime_start: Optional[float] = None
    downtime_end: Optional[float] = None
    rounds: list[RoundRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers (used by the migration engine)
    # ------------------------------------------------------------------
    def add_round(self, record: RoundRecord) -> None:
        """Append a pre-copy round record (indices must be consecutive)."""
        if self.rounds and record.index != self.rounds[-1].index + 1:
            raise PhaseError(
                f"non-consecutive round index {record.index} after {self.rounds[-1].index}"
            )
        if not self.rounds and record.index != 0:
            raise PhaseError(f"first round must have index 0, got {record.index}")
        self.rounds.append(record)

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once all four boundary instants are recorded."""
        return None not in (self.ms, self.ts, self.te, self.me)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.PhaseError` unless ms ≤ ts ≤ te ≤ me."""
        if not self.complete:
            raise PhaseError(f"timeline incomplete: {self!r}")
        assert self.ms is not None and self.ts is not None
        assert self.te is not None and self.me is not None
        if not (self.ms <= self.ts <= self.te <= self.me):
            raise PhaseError(
                f"phase ordering violated: ms={self.ms} ts={self.ts} "
                f"te={self.te} me={self.me}"
            )
        if (self.downtime_start is None) != (self.downtime_end is None):
            raise PhaseError("downtime window must have both ends or neither")
        if self.downtime_start is not None and self.downtime_end is not None:
            if self.downtime_start > self.downtime_end:
                raise PhaseError("downtime_start after downtime_end")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def phase_interval(self, phase: MigrationPhase) -> tuple[float, float]:
        """The [start, end) interval of a migration phase."""
        self.validate()
        assert self.ms is not None and self.ts is not None
        assert self.te is not None and self.me is not None
        if phase is MigrationPhase.INITIATION:
            return (self.ms, self.ts)
        if phase is MigrationPhase.TRANSFER:
            return (self.ts, self.te)
        if phase is MigrationPhase.ACTIVATION:
            return (self.te, self.me)
        raise PhaseError(f"phase {phase} has no single interval")

    @property
    def initiation_duration(self) -> float:
        """Length of the initiation phase in seconds."""
        self.validate()
        assert self.ts is not None and self.ms is not None
        return self.ts - self.ms

    @property
    def transfer_duration(self) -> float:
        """Length of the transfer phase in seconds."""
        self.validate()
        assert self.te is not None and self.ts is not None
        return self.te - self.ts

    @property
    def activation_duration(self) -> float:
        """Length of the activation phase in seconds."""
        self.validate()
        assert self.me is not None and self.te is not None
        return self.me - self.te

    @property
    def total_duration(self) -> float:
        """Total migration time ``me - ms``."""
        self.validate()
        assert self.me is not None and self.ms is not None
        return self.me - self.ms

    @property
    def downtime(self) -> float:
        """Seconds the VM was unavailable (0 if no downtime recorded)."""
        if self.downtime_start is None or self.downtime_end is None:
            return 0.0
        return self.downtime_end - self.downtime_start

    @property
    def bytes_total(self) -> int:
        """Total bytes moved over the network (LIU's ``DATA`` input)."""
        return sum(r.bytes_sent for r in self.rounds)

    @property
    def pages_total(self) -> int:
        """Total pages moved over the network."""
        return sum(r.pages_sent for r in self.rounds)

    @property
    def n_rounds(self) -> int:
        """Number of transfer rounds (1 for non-live)."""
        return len(self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def _f(x: Optional[float]) -> str:
            return "?" if x is None else f"{x:.2f}"

        return (
            f"<PhaseTimeline ms={_f(self.ms)} ts={_f(self.ts)} te={_f(self.te)} "
            f"me={_f(self.me)} rounds={len(self.rounds)}>"
        )
