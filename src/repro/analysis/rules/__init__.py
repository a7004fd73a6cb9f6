"""The concrete ``repro lint`` rules."""

from __future__ import annotations

from typing import List

from ..linter import Rule
from .fault_sites import FaultSiteRule
from .guarded_fields import GuardedFieldRule
from .lock_discipline import LockOrderRule, LockReachabilityRule
from .metrics import MetricNameRule
from .resources import ResourceLifecycleRule
from .txn import TxnSafetyRule

__all__ = [
    "FaultSiteRule",
    "GuardedFieldRule",
    "LockOrderRule",
    "LockReachabilityRule",
    "MetricNameRule",
    "ResourceLifecycleRule",
    "TxnSafetyRule",
    "build_default_rules",
]


def build_default_rules() -> List[Rule]:
    """All seven repo rules, bound to the live site/metric registries."""
    return [
        TxnSafetyRule(),
        FaultSiteRule(),
        MetricNameRule(),
        LockReachabilityRule(),
        LockOrderRule(),
        GuardedFieldRule(),
        ResourceLifecycleRule(),
    ]
