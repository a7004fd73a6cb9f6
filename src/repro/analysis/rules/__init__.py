"""The concrete ``repro lint`` rules."""

from __future__ import annotations

from typing import List

from ..linter import Rule
from .fault_sites import FaultSiteRule
from .guarded_fields import GuardedFieldRule
from .lock_discipline import LockOrderRule, LockReachabilityRule
from .metrics import MetricNameRule
from .parity import BackendParityRule
from .resources import ResourceLifecycleRule
from .sql_safety import SqlSafetyRule
from .txn import TxnSafetyRule

__all__ = [
    "BackendParityRule",
    "FaultSiteRule",
    "GuardedFieldRule",
    "LockOrderRule",
    "LockReachabilityRule",
    "MetricNameRule",
    "ResourceLifecycleRule",
    "SqlSafetyRule",
    "TxnSafetyRule",
    "build_default_rules",
]


def build_default_rules() -> List[Rule]:
    """All nine repo rules, bound to the live site/metric registries."""
    return [
        TxnSafetyRule(),
        FaultSiteRule(),
        MetricNameRule(),
        BackendParityRule(),
        LockReachabilityRule(),
        LockOrderRule(),
        GuardedFieldRule(),
        ResourceLifecycleRule(),
        SqlSafetyRule(),
    ]
