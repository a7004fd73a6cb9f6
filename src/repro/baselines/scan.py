"""The scan oracle, as the baselines use it.

:func:`evaluate_shredded_query` (defined in :mod:`repro.core.scan`)
answers "does this one document match?" by nested-loop evaluation over
its shredded rows, independent of the Fig-4 plan: it is the query path
of the CLOB-only baseline and the planner's correctness oracle in tests.
"""

from __future__ import annotations

from ..core.scan import evaluate_shredded_query

__all__ = ["evaluate_shredded_query"]
