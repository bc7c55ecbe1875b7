"""Numpy-backed trace containers.

Traces accumulate directly into pre-allocated numpy blocks with amortised
doubling growth: appends write into spare capacity, bulk extends copy one
array slice, and reads return O(1) read-only views of the filled prefix.
This replaces the old list-accumulate/convert-on-read design, whose cache
was invalidated by every append — a mid-run reader (the stabilisation
check runs every 2.5 s) paid an O(n) list-to-array conversion per read,
O(n²) over a run.  With block storage, mid-run reads are O(1) and appends
stay amortised O(1) (per the hpc-parallel guides: vectorise reads *and*
keep appends cheap).

Doubling leaves up to half of each block unused, so the instruments
release the spare capacity when they stop (:meth:`PowerTrace.trim`,
:meth:`SeriesTrace.trim`): a finished run keeps exact-size arrays, which
is what a campaign holds in memory until its tables are fitted.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import TraceError

__all__ = ["PowerTrace", "SeriesTrace"]

#: Initial block capacity of a non-empty trace.
_MIN_CAPACITY = 64


def _grown(buffer: np.ndarray, n: int, extra: int) -> np.ndarray:
    """Return a buffer with capacity for ``n + extra``, preserving ``[:n]``.

    Growth at least doubles, so a sequence of appends costs amortised
    O(1) per element.  Previously returned views keep pointing at the old
    block — they stay valid snapshots because filled prefixes are never
    mutated in place.
    """
    need = n + extra
    if need <= buffer.size:
        return buffer
    capacity = max(_MIN_CAPACITY, 2 * buffer.size, need)
    grown = np.empty(capacity, dtype=np.float64)
    grown[:n] = buffer[:n]
    return grown


def _readonly(buffer: np.ndarray, n: int) -> np.ndarray:
    view = buffer[:n]
    view.flags.writeable = False
    return view


def _check_block(label: str, last: Optional[float], times: np.ndarray) -> None:
    """Validate a bulk-append block: 1-D, strictly increasing, after ``last``."""
    if times.ndim != 1:
        raise TraceError(f"bulk append to {label!r} needs 1-D times, got shape {times.shape}")
    if times.size == 0:
        return
    if last is not None and times[0] <= last:
        raise TraceError(
            f"non-increasing timestamp {float(times[0])!r} after "
            f"{float(last)!r} in trace {label!r}"
        )
    if times.size > 1:
        diffs = np.diff(times)
        if not bool(np.all(diffs > 0)):
            where = int(np.argmax(~(diffs > 0)))
            raise TraceError(
                f"non-increasing timestamp {float(times[where + 1])!r} after "
                f"{float(times[where])!r} in trace {label!r}"
            )


class PowerTrace:
    """A timestamped sequence of power readings for one host.

    Examples
    --------
    >>> trace = PowerTrace("m01")
    >>> trace.append(0.5, 455.0)
    >>> trace.append(1.0, 456.2)
    >>> trace.times.tolist()
    [0.5, 1.0]
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._n = 0
        self._t = np.empty(0, dtype=np.float64)
        self._w = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------
    def append(self, t: float, watts: float) -> None:
        """Record one reading; timestamps must be strictly increasing."""
        t = float(t)
        n = self._n
        buf_t = self._t
        if n and t <= buf_t[n - 1]:
            raise TraceError(
                f"non-increasing timestamp {t!r} after {float(buf_t[n - 1])!r} "
                f"in trace {self.label!r}"
            )
        if n >= buf_t.size:
            buf_t = self._t = _grown(buf_t, n, 1)
            self._w = _grown(self._w, n, 1)
        buf_t[n] = t
        self._w[n] = float(watts)
        self._n = n + 1

    def extend(self, times: Iterable[float], watts: Iterable[float]) -> None:
        """Bulk-append aligned samples in one vectorized block.

        The whole block is validated first (single :func:`numpy.diff`
        monotonicity check), then copied with one slice assignment — no
        partial append happens on error.

        Raises
        ------
        ValueError
            If ``times`` and ``watts`` differ in length.
        TraceError
            If the combined timestamp sequence is not strictly increasing.
        """
        if not hasattr(times, "__len__"):
            times = list(times)
        if not hasattr(watts, "__len__"):
            watts = list(watts)
        ta = np.asarray(times, dtype=np.float64)
        wa = np.asarray(watts, dtype=np.float64)
        if ta.shape != wa.shape:
            raise ValueError(
                f"times/watts length mismatch in trace {self.label!r}: "
                f"{ta.shape} vs {wa.shape}"
            )
        n = self._n
        _check_block(self.label, self._t[n - 1] if n else None, ta)
        if ta.size == 0:
            return
        self._t = _grown(self._t, n, ta.size)
        self._w = _grown(self._w, n, ta.size)
        self._t[n:n + ta.size] = ta
        self._w[n:n + ta.size] = wa
        self._n = n + int(ta.size)

    def __len__(self) -> int:
        return self._n

    def _reserve(self, count: int, first_t: float) -> tuple[np.ndarray, np.ndarray, int]:
        """Internal bulk-append fast path: grow for ``count`` more samples.

        Returns ``(t_buffer, w_buffer, start)`` for the caller to fill at
        ``start .. start + count - 1`` before calling :meth:`_commit`.
        The block boundary is validated here (``first_t`` must follow the
        recorded tail); *within* the block the caller must write strictly
        increasing timestamps — the batched samplers generate their tick
        grids in order by construction.
        """
        n = self._n
        if n and first_t <= self._t[n - 1]:
            raise TraceError(
                f"non-increasing timestamp {first_t!r} after "
                f"{float(self._t[n - 1])!r} in trace {self.label!r}"
            )
        self._t = _grown(self._t, n, count)
        self._w = _grown(self._w, n, count)
        return self._t, self._w, n

    def _commit(self, count: int) -> None:
        """Publish ``count`` samples written after :meth:`_reserve`."""
        self._n += count

    def trim(self) -> None:
        """Release spare capacity: keep an exact-size copy of the samples.

        Views read earlier keep the old block alive and stay valid; a
        later append grows the buffer again.
        """
        n = self._n
        if self._t.size != n:
            self._t = self._t[:n].copy()
            self._w = self._w[:n].copy()

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Sample timestamps (seconds), read-only view."""
        return _readonly(self._t, self._n)

    @property
    def watts(self) -> np.ndarray:
        """Power readings (watts), read-only view."""
        return _readonly(self._w, self._n)

    # ------------------------------------------------------------------
    @classmethod
    def _from_arrays(cls, label: str, times: np.ndarray, watts: np.ndarray) -> "PowerTrace":
        out = cls(label)
        out._t = np.ascontiguousarray(times, dtype=np.float64)
        out._w = np.ascontiguousarray(watts, dtype=np.float64)
        out._n = int(out._t.size)
        return out

    def window_slice(self, t0: float, t1: float) -> slice:
        """Index range of the samples with ``t0 <= t <= t1``.

        Two binary searches on the strictly increasing timestamps, so
        ``trace.times[trace.window_slice(t0, t1)]`` is a view equal to
        ``times[(times >= t0) & (times <= t1)]``.
        """
        times = self.times
        lo = int(np.searchsorted(times, t0, side="left"))
        hi = int(np.searchsorted(times, t1, side="right"))
        return slice(lo, hi)

    def window(self, t0: float, t1: float) -> "PowerTrace":
        """Sub-trace of samples with ``t0 <= t <= t1``."""
        if t1 < t0:
            raise TraceError(f"window end {t1!r} before start {t0!r}")
        span = self.window_slice(t0, t1)
        return self._from_arrays(self.label, self.times[span].copy(), self.watts[span].copy())

    def shifted(self, dt: float) -> "PowerTrace":
        """Copy with all timestamps shifted by ``dt`` (plot alignment)."""
        return self._from_arrays(self.label, self.times + dt, self.watts.copy())

    # ------------------------------------------------------------------
    def mean_power(self) -> float:
        """Arithmetic mean of the readings."""
        if not self._n:
            raise TraceError(f"trace {self.label!r} is empty")
        return float(np.mean(self.watts))

    def energy_joules(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Trapezoidal energy over ``[t0, t1]`` (defaults to full span)."""
        from repro.telemetry.integration import integrate_power  # local: avoid cycle

        times, watts = self.times, self.watts
        if times.size == 0:
            raise TraceError(f"trace {self.label!r} is empty")
        lo = float(times[0]) if t0 is None else float(t0)
        hi = float(times[-1]) if t1 is None else float(t1)
        return integrate_power(times, watts, lo, hi)

    def value_at(self, t: float) -> float:
        """Linearly interpolated reading at time ``t`` (clamped at the ends)."""
        if self._n == 0:
            raise TraceError(f"trace {self.label!r} is empty")
        return float(np.interp(t, self.times, self.watts))

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Pickle only the filled prefix (not spare capacity).
        return {"label": self.label, "t": self.times.copy(), "w": self.watts.copy()}

    def __setstate__(self, state: dict) -> None:
        self.label = state["label"]
        self._t = np.asarray(state["t"], dtype=np.float64)
        self._w = np.asarray(state["w"], dtype=np.float64)
        self._n = int(self._t.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._n:
            return f"<PowerTrace {self.label!r} empty>"
        return (
            f"<PowerTrace {self.label!r} n={len(self)} "
            f"[{self._t[0]:.1f}, {self._t[self._n - 1]:.1f}]s>"
        )


class SeriesTrace:
    """A timestamped multi-column trace (dstat-style).

    Columns are declared up front; every append must provide all of them,
    which keeps the arrays rectangular and the reads vectorisable.
    """

    def __init__(self, columns: Iterable[str], label: str = "") -> None:
        cols = tuple(columns)
        if not cols:
            raise TraceError("SeriesTrace needs at least one column")
        if len(set(cols)) != len(cols):
            raise TraceError(f"duplicate column names in {cols!r}")
        self.label = label
        self._columns = cols
        self._colset = frozenset(cols)
        self._n = 0
        self._t = np.empty(0, dtype=np.float64)
        self._cols = {c: np.empty(0, dtype=np.float64) for c in cols}

    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple[str, ...]:
        """Declared column names."""
        return self._columns

    def _check_names(self, values: dict) -> None:
        if values.keys() != self._colset:
            missing = set(self._columns) - set(values)
            extra = set(values) - set(self._columns)
            raise TraceError(
                f"row mismatch in {self.label!r}: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )

    def append(self, t: float, **values: float) -> None:
        """Record one row; all declared columns are required."""
        self._check_names(values)
        self._append_row(float(t), tuple(float(values[c]) for c in self._columns))

    def _append_row(self, t: float, row: tuple) -> None:
        """Append one row given positionally in column order.

        Internal fast path of the batched samplers: skips the keyword
        plumbing of :meth:`append` (the caller aligns ``row`` with
        :attr:`columns` by construction); the monotonicity check is kept.
        """
        n = self._n
        buf_t = self._t
        if n and t <= buf_t[n - 1]:
            raise TraceError(
                f"non-increasing timestamp {t!r} in trace {self.label!r}"
            )
        cols = self._cols
        if n >= buf_t.size:
            buf_t = self._t = _grown(buf_t, n, 1)
            for c in self._columns:
                cols[c] = _grown(cols[c], n, 1)
        buf_t[n] = t
        for c, value in zip(self._columns, row):
            cols[c][n] = value
        self._n = n + 1

    def extend(self, times: Iterable[float], **values) -> None:
        """Bulk-append aligned rows in one vectorized block per column.

        A column value may be a scalar, which broadcasts over the whole
        block — the natural shape for quantities that are constant across
        an event-free interval (placement flags, bandwidth, …).

        Raises
        ------
        ValueError
            If an array column's length differs from ``times``.
        TraceError
            On a column-name mismatch or non-increasing timestamps.
        """
        self._check_names(values)
        if not hasattr(times, "__len__"):
            times = list(times)
        ta = np.asarray(times, dtype=np.float64)
        cols: dict[str, object] = {}
        for c in self._columns:
            value = values[c]
            if isinstance(value, (int, float)):
                cols[c] = float(value)
                continue
            if not hasattr(value, "__len__"):
                value = list(value)
            arr = np.asarray(value, dtype=np.float64)
            if arr.ndim == 0:
                cols[c] = float(arr)
                continue
            if arr.shape != ta.shape:
                raise ValueError(
                    f"column {c!r} length mismatch in trace {self.label!r}: "
                    f"{arr.shape} vs {ta.shape}"
                )
            cols[c] = arr
        n = self._n
        _check_block(self.label, self._t[n - 1] if n else None, ta)
        if ta.size == 0:
            return
        self._t = _grown(self._t, n, ta.size)
        self._t[n:n + ta.size] = ta
        for c in self._columns:
            buf = _grown(self._cols[c], n, ta.size)
            buf[n:n + ta.size] = cols[c]
            self._cols[c] = buf
        self._n = n + int(ta.size)

    def __len__(self) -> int:
        return self._n

    def _reserve(
        self, count: int, first_t: float
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
        """Internal bulk-append fast path (see ``PowerTrace._reserve``).

        Returns ``(t_buffer, column_buffers_in_declared_order, start)``.
        """
        n = self._n
        if n and first_t <= self._t[n - 1]:
            raise TraceError(
                f"non-increasing timestamp {first_t!r} in trace {self.label!r}"
            )
        self._t = _grown(self._t, n, count)
        cols = self._cols
        for c in self._columns:
            cols[c] = _grown(cols[c], n, count)
        return self._t, tuple(cols[c] for c in self._columns), n

    def _commit(self, count: int) -> None:
        """Publish ``count`` rows written after :meth:`_reserve`."""
        self._n += count

    def trim(self) -> None:
        """Release spare capacity (see :meth:`PowerTrace.trim`)."""
        n = self._n
        if self._t.size != n:
            self._t = self._t[:n].copy()
            self._cols = {c: buf[:n].copy() for c, buf in self._cols.items()}

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Sample timestamps (seconds)."""
        return _readonly(self._t, self._n)

    def column(self, name: str) -> np.ndarray:
        """The values of one column."""
        if name not in self._columns:
            raise TraceError(f"unknown column {name!r}; have {self._columns}")
        return _readonly(self._cols[name], self._n)

    def value_at(self, name: str, t: float) -> float:
        """Linearly interpolated column value at time ``t``."""
        if self._n == 0:
            raise TraceError(f"trace {self.label!r} is empty")
        return float(np.interp(t, self.times, self.column(name)))

    def window(self, t0: float, t1: float) -> "SeriesTrace":
        """Sub-trace of rows with ``t0 <= t <= t1``."""
        if t1 < t0:
            raise TraceError(f"window end {t1!r} before start {t0!r}")
        times = self.times
        mask = (times >= t0) & (times <= t1)
        out = SeriesTrace(self._columns, self.label)
        out._t = np.ascontiguousarray(times[mask])
        out._cols = {
            c: np.ascontiguousarray(self.column(c)[mask]) for c in self._columns
        }
        out._n = int(out._t.size)
        return out

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "label": self.label,
            "columns": self._columns,
            "t": self.times.copy(),
            "cols": {c: self.column(c).copy() for c in self._columns},
        }

    def __setstate__(self, state: dict) -> None:
        self.label = state["label"]
        self._columns = tuple(state["columns"])
        self._colset = frozenset(self._columns)
        self._t = np.asarray(state["t"], dtype=np.float64)
        self._cols = {
            c: np.asarray(arr, dtype=np.float64) for c, arr in state["cols"].items()
        }
        self._n = int(self._t.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeriesTrace {self.label!r} n={len(self)} cols={self._columns}>"
