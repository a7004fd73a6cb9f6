"""``repro.relational`` — from-scratch relational engine (system S2).

Provides typed columnar tables with hash indexes, an undo-journal
transaction, storage accounting, and the sorted id-vector intersection
the plan interpreter merges stages with.  The hybrid catalog's
set-based plans (paper Fig. 4 and §5) execute on this engine; the same
plans also run on stdlib sqlite through :mod:`repro.backends.sqlite`
for cross-validation.

``__all__`` is the surface the rest of ``src/repro`` uses and nothing
more (pinned by ``tests/relational/test_surface.py``); the building
blocks behind it (``Column``, ``HashIndex``, the error classes) live in
the submodules.
"""

from .batch import intersect_sorted
from .engine import Database
from .table import Table
from .types import clob, integer, real, text

__all__ = [
    "Database",
    "Table",
    "clob",
    "integer",
    "intersect_sorted",
    "real",
    "text",
]
