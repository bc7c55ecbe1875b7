"""Deterministic, time-quantised noise processes.

Several simulated quantities need *consistent* stochastic fluctuation: when
the power meter and the dstat monitor both read host CPU utilisation at the
same instant they must see the same jittered value, and re-running the same
seed must reproduce it exactly.  Instead of mutating generator state on
every read (read-order dependence), noise is a *pure function* of
``(seed, key, floor(t / quantum))`` computed through a hash.

This gives piecewise-constant noise with correlation time ``quantum``,
which is also physically sensible: utilisation genuinely fluctuates on a
scheduler-tick timescale, not per femtosecond.

:func:`ou_like_noise` is the definition, read one instant at a time by the
event path.  The batched path reads the same process through one
:class:`NoiseStream` per ``(seed, key)``, owned by the host or VM whose
jitter it is, which hashes each tick once and replays the scalar
arithmetic bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.errors import ConfigurationError
from repro.simulator.rng import derive_seed

_sha256 = hashlib.sha256
#: Little-endian u64 of a digest's first 8 bytes — exactly what
#: ``int.from_bytes(digest[:8], "little")`` yields, without the slice.
_u64_prefix = struct.Struct("<Q").unpack_from

__all__ = [
    "hash_normal",
    "hash_normal_unit",
    "hash_normal_unit_fill",
    "NoiseStream",
    "ou_like_noise",
    "ou_like_noise_values",
]

_TWO_PI = 2.0 * math.pi
_U64 = float(2**64)


def _hash_unit(seed: int, key: str, tick: int, salt: int = 0) -> float:
    """Uniform float in (0, 1) from a hash of (seed, key, tick, salt)."""
    raw = derive_seed(seed, f"{key}#{tick}#{salt}")
    # Map to (0, 1) exclusive to keep it safe for log/Box-Muller.
    return (raw + 0.5) / _U64


def hash_normal(seed: int, key: str, t: float, quantum: float, sigma: float = 1.0) -> float:
    """Quantised Gaussian noise, N(0, sigma²); constant within a quantum.

    Uses the Box–Muller transform on two independent hash uniforms.
    """
    if quantum <= 0:
        raise ConfigurationError(f"quantum must be positive, got {quantum!r}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be non-negative, got {sigma!r}")
    if sigma == 0.0:
        return 0.0
    tick = math.floor(t / quantum)
    u1 = _hash_unit(seed, key, tick, salt=1)
    u2 = _hash_unit(seed, key, tick, salt=2)
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def hash_normal_unit(seed: int, key: str, tick: int) -> float:
    """Standard-normal hash noise at an integer ``tick``.

    This is the ``sigma=1`` core of :func:`hash_normal` keyed directly by
    tick: ``hash_normal(seed, key, tick * quantum, quantum, 1.0)`` equals
    ``hash_normal_unit(seed, key, tick)`` bit for bit (``1.0 * x == x``
    for every float).  A :class:`NoiseStream` buffers these per tick and
    fills the ticks it lacks through :func:`hash_normal_unit_fill`, which
    hashes the same bytes.

    The two hash uniforms are built inline (one formatted string and one
    SHA-256 each, exactly :func:`_hash_unit`'s bytes) rather than through
    the scalar helper chain.
    """
    prefix = f"{seed}:{key}#{tick}#".encode("utf-8")
    raw1 = _u64_prefix(_sha256(prefix + b"1").digest())[0]
    raw2 = _u64_prefix(_sha256(prefix + b"2").digest())[0]
    u1 = (raw1 + 0.5) / _U64
    u2 = (raw2 + 0.5) / _U64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def hash_normal_unit_fill(seed: int, key: str, lo: int, hi: int) -> list[float]:
    """:func:`hash_normal_unit` draws for the ticks ``[lo, hi)``, in order.

    Bit-identical per element to the scalar function: the hashed bytes are
    the same ``f"{seed}:{key}#{tick}#"`` prefix (the ``(seed, key)`` head is
    hoisted out of the loop and the tick rendered with bytes ``%``-
    formatting, which produces the identical ASCII decimal, including the
    sign of negative ticks), and the Box–Muller transform runs through the
    same scalar ``math`` calls.
    """
    head = f"{seed}:{key}#".encode("utf-8")
    sha = _sha256
    unpack = _u64_prefix
    sqrt = math.sqrt
    log = math.log
    cos = math.cos
    out = []
    for tick in range(lo, hi):
        prefix = head + b"%d#" % tick
        u1 = (unpack(sha(prefix + b"1").digest())[0] + 0.5) / _U64
        u2 = (unpack(sha(prefix + b"2").digest())[0] + 0.5) / _U64
        out.append(sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2))
    return out


def hash_normal_unit_fill_bank(
    requests: list[tuple[int, str, int, int]],
) -> list[list[float]]:
    """:func:`hash_normal_unit_fill` per ``(seed, key, lo, hi)`` request.

    A retired name, kept only because the paper-campaign benchmark's span
    table (``perfbench/spans.py``) still lists it and the benchmark's
    tracer test expects every listed name to resolve; nothing here calls
    it.
    """
    return [hash_normal_unit_fill(*request) for request in requests]


class NoiseStream:
    """The :func:`ou_like_noise` process of one ``(seed, key)``, batched.

    Holds the :func:`hash_normal_unit` draws of the ticks ``[lo, lo + n)``
    in one contiguous buffer and grows it at either end, one
    :func:`hash_normal_unit_fill` call per growth, so each tick of the
    stream is hashed once however its reads are split into blocks and
    ordered, as long as they do not go back past a gap (see
    :meth:`_cover`).  A read before the buffer grows it down to that
    read's first tick: read one stream forward over time, not at samples
    scattered over a long span.

    :meth:`values` replays the scalar blend arithmetic bit for bit: ticks
    are floored with the same ``t / quantum`` float arithmetic (including
    the *previous* tick via ``(t - quantum) / quantum``, which is not
    always ``tick - 1`` in floats), and the blend and renormalisation are
    the same float64 operations in the same order.  The noise is a pure
    function of ``(seed, key, t)``, so one stream serves every reader of
    its owner (the host's meter, dstat and feature recorder).
    """

    __slots__ = ("seed", "key", "quantum", "blend", "_one_minus", "_norm", "_lo", "_draws")

    def __init__(self, seed: int, key: str, quantum: float, blend: float = 0.6) -> None:
        if quantum <= 0:
            raise ConfigurationError(f"quantum must be positive, got {quantum!r}")
        if not 0.0 <= blend < 1.0:
            raise ConfigurationError(f"blend must be in [0, 1), got {blend!r}")
        self.seed = seed
        self.key = key
        self.quantum = quantum
        self.blend = blend
        self._one_minus = 1.0 - blend
        self._norm = math.sqrt(blend * blend + self._one_minus * self._one_minus)
        self._lo = 0
        self._draws: list[float] = []

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the buffer to hold every tick in ``[lo, hi]``.

        A range that starts past the buffer's end, with ticks between
        (a suspended VM's reads resuming), restarts the buffer there
        instead of hashing ticks nobody reads.
        """
        draws = self._draws
        if not draws or lo > self._lo + len(draws):
            self._draws = hash_normal_unit_fill(self.seed, self.key, lo, hi + 1)
            self._lo = lo
            return
        if lo < self._lo:
            self._draws = draws = hash_normal_unit_fill(self.seed, self.key, lo, self._lo) + draws
            self._lo = lo
        end = self._lo + len(draws)
        if hi >= end:
            draws += hash_normal_unit_fill(self.seed, self.key, end, hi + 1)

    def values(self, times: list[float], sigma: float) -> list[float]:
        """``ou_like_noise(seed, key, t, quantum, sigma, blend)`` per ``t``."""
        if not times:
            return []
        q = self.quantum
        floor = math.floor
        lo = floor((min(times) - q) / q)
        hi = floor(max(times) / q)
        if lo < self._lo or hi >= self._lo + len(self._draws):
            self._cover(lo, hi)
        draws = self._draws
        offset = self._lo
        blend = self.blend
        one_minus = self._one_minus
        norm = self._norm
        return [
            sigma
            * (blend * draws[floor((t - q) / q) - offset] + one_minus * draws[floor(t / q) - offset])
            / norm
            for t in times
        ]


def ou_like_noise_values(
    seed: int,
    key: str,
    times: list[float],
    quantum: float,
    sigma: float,
    blend: float = 0.6,
) -> list[float]:
    """Batched :func:`ou_like_noise` over a list of sample times.

    One fresh :class:`NoiseStream` read once; bit-identical to calling
    the scalar function per element.
    """
    return NoiseStream(seed, key, quantum, blend).values(times, sigma)


def ou_like_noise(
    seed: int,
    key: str,
    t: float,
    quantum: float,
    sigma: float,
    blend: float = 0.6,
) -> float:
    """Correlated noise approximating an Ornstein–Uhlenbeck process.

    NOTE: :meth:`NoiseStream.values` replays this blend arithmetic bit
    for bit; mirror any change there (the cross-path golden tests fail on
    divergence).

    Blends the noise of the current quantum with the previous one, giving
    lag-1 correlation ≈ ``blend`` without any mutable state.  Variance is
    renormalised so the marginal stays N(0, sigma²).
    """
    if not 0.0 <= blend < 1.0:
        raise ConfigurationError(f"blend must be in [0, 1), got {blend!r}")
    current = hash_normal(seed, key, t, quantum, sigma=1.0)
    previous = hash_normal(seed, key, t - quantum, quantum, sigma=1.0)
    mixed = blend * previous + (1.0 - blend) * current
    norm = math.sqrt(blend * blend + (1.0 - blend) * (1.0 - blend))
    return sigma * mixed / norm
