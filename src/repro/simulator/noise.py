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
    "memoise_ticks",
    "ou_like_noise",
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
    for every float).  The batched kernels memoise these per tick in one
    dict per ``(seed, key)`` stream and fill a block's missing ticks
    through :func:`hash_normal_unit_fill`, which hashes the same bytes.

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


def memoise_ticks(seed: int, key: str, cache: NoiseCache, lo: int, hi: int) -> None:
    """Put the draws of every tick in ``[lo, hi]`` that ``cache`` lacks into it.

    Each contiguous run of missing ticks is filled by one
    :func:`hash_normal_unit_fill` call, so a tick is hashed at most once
    per memo however the blocks that read it are split.
    """
    tick = lo
    while tick <= hi:
        if tick in cache:
            tick += 1
            continue
        end = tick + 1
        while end <= hi and end not in cache:
            end += 1
        cache.update(zip(range(tick, end), hash_normal_unit_fill(seed, key, tick, end)))
        tick = end


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
    the same float64 operations.  The block's tick range runs from the
    earliest sample's previous tick to the latest sample's current tick
    (``floor`` is monotone), and :func:`memoise_ticks` hashes whatever of
    it the memo ``cache`` (shared across calls and instruments) still
    lacks — every tick in between, so pass the times of one block, not
    samples scattered over a long span.

    Parameters
    ----------
    seed, key, quantum, sigma, blend:
        As in :func:`ou_like_noise`.
    times:
        Sample times (plain floats).
    cache:
        Optional ``tick -> draw`` memo of this ``(seed, key)`` stream,
        shared across calls.
    """
    if quantum <= 0:
        raise ConfigurationError(f"quantum must be positive, got {quantum!r}")
    if not 0.0 <= blend < 1.0:
        raise ConfigurationError(f"blend must be in [0, 1), got {blend!r}")
    if cache is None:
        cache = {}
    if not times:
        return []
    floor = math.floor
    memoise_ticks(
        seed, key, cache, floor((min(times) - quantum) / quantum), floor(max(times) / quantum)
    )
    one_minus = 1.0 - blend
    norm = math.sqrt(blend * blend + one_minus * one_minus)
    return [
        sigma
        * (blend * cache[floor((t - quantum) / quantum)] + one_minus * cache[floor(t / quantum)])
        / norm
        for t in times
    ]


def ou_like_noise(
    seed: int,
    key: str,
    t: float,
    quantum: float,
    sigma: float,
    blend: float = 0.6,
) -> float:
    """Correlated noise approximating an Ornstein–Uhlenbeck process.

    NOTE: the batched kernels (:func:`ou_like_noise_values` and the
    interval kernels of :mod:`repro.simulator.kernels`) replay this blend
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
