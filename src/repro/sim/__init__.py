"""Discrete-event simulation substrate (events, processes, resources)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    SimulationError,
    Timeout,
)
from .resources import BandwidthLink, Resource, Store
from .sync import Barrier, Channel, Flag, Mutex, Semaphore
from .trace import Tracer

__all__ = [
    "AllOf", "AnyOf", "Event", "Interrupt", "Process", "Simulator",
    "SimulationError", "Timeout",
    "BandwidthLink", "Resource", "Store",
    "Barrier", "Channel", "Flag", "Mutex", "Semaphore",
    "Tracer",
]
