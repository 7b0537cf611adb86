"""Discrete-event simulation kernel (engine, resources, measurement)."""

from .engine import (AllOf, Engine, Event, Process, Timeout,
                     blocked_report, describe_event)
from .probes import BandwidthProbe, summarize_probe
from .resources import FairShareServer, Join, Mutex, Store
from .stats import JobMetrics, PhaseClock

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "blocked_report",
    "describe_event",
    "BandwidthProbe",
    "summarize_probe",
    "FairShareServer",
    "Join",
    "Mutex",
    "Store",
    "JobMetrics",
    "PhaseClock",
]
