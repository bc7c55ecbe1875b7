"""Discrete-event simulation kernel (subsystem S1).

A deliberately small, dependency-free event-driven core:

* :class:`~repro.simulator.engine.Simulator` — event heap + simulated clock;
* :class:`~repro.simulator.events.Event` — cancellable scheduled callbacks;
* :class:`~repro.simulator.rng.RandomStreams` — named, seed-derived
  deterministic random streams (one per simulated component);
* :class:`~repro.simulator.sampling.PeriodicSampler` — fixed-rate sampling
  processes used by the simulated measurement devices (the engine's only
  kind of interval hook: an observer).
"""

from repro.simulator.engine import Simulator
from repro.simulator.events import Event, EventState
from repro.simulator.rng import RandomStreams, derive_seed
from repro.simulator.sampling import PeriodicSampler

__all__ = [
    "Simulator",
    "Event",
    "EventState",
    "RandomStreams",
    "derive_seed",
    "PeriodicSampler",
]
