"""ICMP timestamp probing toolkit.

Crafts the four timestamp request types, classifies how responders
implement and keep time, infers timezone-relative clocks, and ships an
in-memory responder simulator so the whole pipeline runs offline.
"""

from icmpstamp.classify import (
    Correctness,
    CorrectnessPolicy,
    Fingerprint,
    HostObservation,
    ImplClass,
    Timekeeping,
    fingerprint_observation,
    merge_fingerprints,
)
from icmpstamp.clock import DAY_MS, OffsetTable
from icmpstamp.probes import ProbeKind, ProbeOutcome, TamperVerdict
from icmpstamp.responder import BehaviorConfig, SimNetwork
from icmpstamp.wire import TimestampMessage, decode, encode, internet_checksum

__version__ = "0.1.0"

__all__ = [
    "BehaviorConfig",
    "Correctness",
    "CorrectnessPolicy",
    "DAY_MS",
    "Fingerprint",
    "HostObservation",
    "ImplClass",
    "OffsetTable",
    "ProbeKind",
    "ProbeOutcome",
    "SimNetwork",
    "TamperVerdict",
    "Timekeeping",
    "TimestampMessage",
    "decode",
    "encode",
    "fingerprint_observation",
    "internet_checksum",
    "merge_fingerprints",
    "__version__",
]
