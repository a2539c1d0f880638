"""Discrete-event simulation kernel for the Plexus reproduction.

Public surface::

    from repro.sim import Engine, Event, Timeout, Process, Signal
"""

from .engine import (
    Engine,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Signal

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Signal",
    "SimulationError",
    "Timeout",
]
