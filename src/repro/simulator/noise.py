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
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.simulator.rng import derive_seed

_sha256 = hashlib.sha256
#: Little-endian u64 of a digest's first 8 bytes — exactly what
#: ``int.from_bytes(digest[:8], "little")`` yields, without the slice.
_u64_prefix = struct.Struct("<Q").unpack_from

__all__ = [
    "hash_uniform",
    "hash_normal",
    "hash_normal_unit",
    "hash_normal_unit_fill",
    "ou_like_noise",
    "ou_like_noise_block",
    "ou_like_noise_cached",
    "ou_like_noise_values",
]

#: Memo table type of the block evaluators: ``tick -> N(0,1) draw``.
#: One table per noise key (the key is folded into the owner's attribute,
#: keeping memo lookups to a plain int hash).
NoiseCache = Dict[int, float]

_TWO_PI = 2.0 * math.pi
_U64 = float(2**64)


def _hash_unit(seed: int, key: str, tick: int, salt: int = 0) -> float:
    """Uniform float in (0, 1) from a hash of (seed, key, tick, salt)."""
    raw = derive_seed(seed, f"{key}#{tick}#{salt}")
    # Map to (0, 1) exclusive to keep it safe for log/Box-Muller.
    return (raw + 0.5) / _U64


def hash_uniform(seed: int, key: str, t: float, quantum: float, low: float = 0.0, high: float = 1.0) -> float:
    """Quantised uniform noise in ``[low, high)``; constant within a quantum."""
    if quantum <= 0:
        raise ConfigurationError(f"quantum must be positive, got {quantum!r}")
    tick = math.floor(t / quantum)
    return low + (high - low) * _hash_unit(seed, key, tick)


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
    for every float).  The batched telemetry kernel memoises these per
    ``(key, tick)`` — consecutive samples and co-located instruments
    reuse the same ticks, so the expensive SHA-256 evaluations drop from
    per-read to per-unique-tick.

    The two hash uniforms are built inline (one formatted string and one
    SHA-256 each, exactly :func:`_hash_unit`'s bytes) rather than through
    the scalar helper chain — this memo-miss path is the fast path's hot
    spot.
    """
    prefix = f"{seed}:{key}#{tick}#".encode("utf-8")
    raw1 = _u64_prefix(_sha256(prefix + b"1").digest())[0]
    raw2 = _u64_prefix(_sha256(prefix + b"2").digest())[0]
    u1 = (raw1 + 0.5) / _U64
    u2 = (raw2 + 0.5) / _U64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def hash_normal_unit_fill(seed: int, key: str, lo: int, hi: int) -> np.ndarray:
    """Contiguous block of :func:`hash_normal_unit` draws for ticks ``[lo, hi)``.

    Bit-identical per element to the scalar function: the hashed bytes are
    the same ``f"{seed}:{key}#{tick}#"`` prefix (the ``(seed, key)`` head is
    hoisted out of the loop and the tick rendered with bytes ``%``-
    formatting, which produces the identical ASCII decimal — including the
    sign of negative ticks), and the Box–Muller transform runs through the
    same scalar ``math`` calls.  ``log``/``cos`` stay *scalar* deliberately:
    numpy's SIMD transcendentals are not bit-identical to libm on every
    platform, and these draws feed the cross-mode golden tests.

    This is the fill primitive of the compute-mode noise tick grids
    (:class:`repro.simulator.kernels.NoiseTickGrid`): the SHA-256 work is
    the same per unique tick as the memo-dict path, but the draws land in a
    contiguous array the vectorized kernels can gather from.

    The digest-to-uniform step is batched: each SHA-256 digest is 32 bytes
    = four little-endian u64 words, so joining the digests and striding a
    ``frombuffer`` view by 4 reads the same leading-8-byte word the scalar
    path unpacks.  ``uint64 -> float64`` conversion, ``+ 0.5`` and the
    division by ``2**64`` (a power of two) are all exactly-rounded IEEE
    ops, identical elementwise to the scalar arithmetic.
    """
    head = f"{seed}:{key}#".encode("utf-8")
    sha = _sha256
    sqrt = math.sqrt
    log = math.log
    cos = math.cos
    n = hi - lo
    if n < 32:
        # Grid-edge extensions arrive one or two ticks at a time; the
        # batched path's fixed cost (comprehensions + frombuffer views)
        # only pays for itself on real blocks.
        out = np.empty(n, dtype=np.float64)
        unpack = _u64_prefix
        for i in range(n):
            prefix = head + b"%d#" % (lo + i)
            raw1 = unpack(sha(prefix + b"1").digest())[0]
            raw2 = unpack(sha(prefix + b"2").digest())[0]
            u1 = (raw1 + 0.5) / _U64
            u2 = (raw2 + 0.5) / _U64
            out[i] = sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2)
        return out
    prefixes = [head + b"%d#" % tick for tick in range(lo, hi)]
    d1 = b"".join([sha(p + b"1").digest() for p in prefixes])
    d2 = b"".join([sha(p + b"2").digest() for p in prefixes])
    u1s = ((np.frombuffer(d1, dtype="<u8")[::4] + 0.5) / _U64).tolist()
    u2s = ((np.frombuffer(d2, dtype="<u8")[::4] + 0.5) / _U64).tolist()
    return np.asarray(
        [sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2) for u1, u2 in zip(u1s, u2s)],
        dtype=np.float64,
    )


def hash_normal_unit_fill_bank(
    requests: list[tuple[int, str, int, int]],
) -> list[np.ndarray]:
    """:func:`hash_normal_unit_fill` per ``(seed, key, lo, hi)`` request.

    A retired name, kept only because the paper-campaign benchmark's span
    table (``perfbench/spans.py``) still lists it; nothing here calls it.
    """
    return [hash_normal_unit_fill(*request) for request in requests]


def ou_like_noise_values(
    seed: int,
    key: str,
    times: list[float],
    quantum: float,
    sigma: float,
    blend: float = 0.6,
    cache: NoiseCache | None = None,
) -> list[float]:
    """Batched :func:`ou_like_noise` over a list of sample times.

    Bit-identical to calling the scalar function per element: ticks are
    floored with the same ``t / quantum`` float arithmetic (including the
    *previous* tick via ``(t - quantum) / quantum``, which is not always
    ``tick - 1`` in floats), the per-tick standard normals are the same
    Box–Muller hash draws, and the blend/renormalisation arithmetic is
    the same float64 operations.  A tight scalar loop beats elementwise
    numpy here: telemetry blocks are typically a handful of samples, and
    the dominant cost is the per-unique-tick SHA-256 — which the memo
    ``cache`` bounds across calls and across instruments sharing a key.

    Parameters
    ----------
    seed, key, quantum, sigma, blend:
        As in :func:`ou_like_noise`.
    times:
        Sample times (plain floats).
    cache:
        Optional ``(key, tick) -> draw`` memo shared across calls.
    """
    if quantum <= 0:
        raise ConfigurationError(f"quantum must be positive, got {quantum!r}")
    if not 0.0 <= blend < 1.0:
        raise ConfigurationError(f"blend must be in [0, 1), got {blend!r}")
    if cache is None:
        cache = {}
    get = cache.get
    floor = math.floor
    one_minus = 1.0 - blend
    norm = math.sqrt(blend * blend + one_minus * one_minus)
    out = []
    for t in times:
        tick = floor(t / quantum)
        current = get(tick)
        if current is None:
            current = hash_normal_unit(seed, key, tick)
            cache[tick] = current
        tick = floor((t - quantum) / quantum)
        previous = get(tick)
        if previous is None:
            previous = hash_normal_unit(seed, key, tick)
            cache[tick] = previous
        mixed = blend * previous + one_minus * current
        out.append(sigma * mixed / norm)
    return out


def ou_like_noise_block(
    seed: int,
    key: str,
    times: np.ndarray,
    quantum: float,
    sigma: float,
    blend: float = 0.6,
    cache: NoiseCache | None = None,
) -> np.ndarray:
    """Array wrapper of :func:`ou_like_noise_values`."""
    times = np.asarray(times, dtype=np.float64)
    values = ou_like_noise_values(
        seed, key, times.tolist(), quantum, sigma, blend, cache
    )
    return np.asarray(values, dtype=np.float64)


def ou_like_noise_cached(
    seed: int,
    key: str,
    t: float,
    quantum: float,
    sigma: float,
    blend: float,
    cache: NoiseCache,
) -> float:
    """Scalar :func:`ou_like_noise` through a per-tick memo.

    The single-sample core of :func:`ou_like_noise_values`, used by the
    batched telemetry kernel when an event-free interval holds too few
    samples for array operations to pay off.  Bit-identical to the
    uncached scalar function (memoised draws are pure).
    """
    get = cache.get
    cur_tick = math.floor(t / quantum)
    current = get(cur_tick)
    if current is None:
        current = hash_normal_unit(seed, key, cur_tick)
        cache[cur_tick] = current
    prev_tick = math.floor((t - quantum) / quantum)
    previous = get(prev_tick)
    if previous is None:
        previous = hash_normal_unit(seed, key, prev_tick)
        cache[prev_tick] = previous
    one_minus = 1.0 - blend
    mixed = blend * previous + one_minus * current
    norm = math.sqrt(blend * blend + one_minus * one_minus)
    return sigma * mixed / norm


def ou_like_noise(
    seed: int,
    key: str,
    t: float,
    quantum: float,
    sigma: float,
    blend: float = 0.6,
) -> float:
    """Correlated noise approximating an Ornstein–Uhlenbeck process.

    NOTE: the batched kernels (:func:`ou_like_noise_values`,
    :func:`ou_like_noise_cached`, and the fused drift block in
    ``PhysicalHost.instantaneous_power_values``) replay this blend
    arithmetic bit for bit; mirror any change there (the cross-path
    golden tests fail on divergence).

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
