"""Discrete-event simulation kernel for the Plexus reproduction.

Public surface::

    from repro.sim import Engine, Event, Timeout, Process, Interrupt
    from repro.sim import Resource, Store, Signal
    from repro.sim import Partition, PartitionedSimulation
"""

from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .partition import Partition, PartitionedSimulation
from .resources import Resource, ResourceRequest, Signal, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Partition",
    "PartitionedSimulation",
    "Process",
    "Resource",
    "ResourceRequest",
    "Signal",
    "SimulationError",
    "Store",
    "Timeout",
]
