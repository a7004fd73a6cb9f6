"""The central fault-site registry (enforced by ``repro lint`` FLT01).

Every injection point the crash-safety machinery knows about is named
here, in one place, so the deterministic fault sweeps cannot silently
go dead after a rename:

* :data:`STATEMENT_SITES` — the per-statement ``verb:table`` sites a
  :class:`~repro.faults.plan.FaultPlan` is consulted at
  (:meth:`HybridStore._fault` on the memory store, the tracked-
  connection proxy on sqlite).  The names are identical across
  backends so one plan drives both.
* :data:`TRANSACTION_SITES` — the logical-operation labels passed to
  ``run_transaction`` (they label the
  ``txn_commits_total`` / ``txn_rollbacks_total`` /
  ``txn_retries_total`` counters and the retry policy's unit of work).

``repro lint`` rule FLT01 verifies that (a) every site string
literal used with ``FaultPlan(site=...)``, ``run_transaction(...)``, or
``_fault(...)`` anywhere in ``src/`` is registered here, and (b) every
registered *statement* site appears in at least one test under
``tests/faults/`` — a fault sweep that no longer reaches a site is a
CI failure, not a silent gap.  :func:`check_site` gives dynamic
call sites the same guarantee at runtime.  A renamed
``run_transaction`` label is the seeded bug that proves the rule
(``tests/analysis/test_seeded_bugs.py``).
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "STATEMENT_SITES",
    "TRANSACTION_SITES",
    "ALL_SITES",
    "check_site",
]

#: The catalog tables whose rows belong to exactly one object, in the
#: order ``delete_object`` clears them.
OBJECT_ROW_TABLES: tuple = (
    "objects", "clobs", "attributes", "elements", "attr_ancestors",
)

#: Per-statement ``verb:table`` injection sites (see
#: :func:`repro.backends.sqlite._statement_site` for the sqlite-side
#: derivation; the memory store names them explicitly).
STATEMENT_SITES: FrozenSet[str] = frozenset(
    {
        # Definition sync.
        "insert:attr_defs",
        "insert:elem_defs",
        # Ingest / incremental append.
        "insert:objects",
        "insert:clobs",
        "insert:attributes",
        "insert:elements",
        "insert:attr_ancestors",
        # Object deletion (one site per object-row table).
        "delete:objects",
        "delete:clobs",
        "delete:attributes",
        "delete:elements",
        "delete:attr_ancestors",
        # Schema installation (sqlite loads ordering rows in bulk).
        "insert:schema_order",
        # Reader-pool connection acquisition (sqlite on-disk catalogs).
        # Consulted only by plans that target it explicitly, so the
        # deterministic fail_at sweeps over write statements are not
        # perturbed by concurrent reads.
        "pool:acquire",
    }
)

#: Logical-operation transaction labels (``run_transaction`` sites).
TRANSACTION_SITES: FrozenSet[str] = frozenset(
    {
        "install_schema",
        "migrate_format",
        "sync_definitions",
        "store_object",
        "append_rows",
        "delete_object",
        "remove_attribute_instance",
        "catalog.ingest",
        "catalog.add_attribute",
    }
)

ALL_SITES: FrozenSet[str] = STATEMENT_SITES | TRANSACTION_SITES


def check_site(site: str) -> str:
    """Validate a dynamically built site name against the registry;
    returns it unchanged.  Call sites that cannot use a string literal
    (and therefore escape the FLT01 static check) go through here so
    an unregistered name still fails fast, in tests."""
    if site not in ALL_SITES:
        raise ValueError(
            f"fault site {site!r} is not registered in repro.faults.sites"
        )
    return site
