"""Shard routing: which of the N shard databases owns an object.

A :class:`ShardRouter` is a pure, deterministic function from an
object's identity to a shard index.  Determinism matters twice over:
the same catalog reopened in another process must route every object
to the same shard it was written to, and the sharding parity suite
relies on routing being a function of the ingest arguments alone.
Neither router may therefore use :func:`hash` (salted per process) —
both mix their key through fixed integer arithmetic.

Two routers ship:

* :class:`HashRouter` — partition by object id.  Ids are allocated
  globally and sequentially by the catalog, so a bit-mixing
  step (a splitmix64-style finalizer) spreads consecutive ids across
  shards instead of striping them modulo N.
* :class:`UserRouter` — partition by the ``owner`` string (CRC-32 of
  its UTF-8 bytes), the AMGA-style per-user layout: one grid user's
  objects land together, so single-owner scans touch one shard.
"""

from __future__ import annotations

import zlib

__all__ = ["ShardRouter", "HashRouter", "UserRouter", "router_for"]

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64's finalizer: a fixed avalanche permutation of the
    64-bit integers (Steele et al.), stable across processes."""
    value = value & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class ShardRouter:
    """Deterministic object → shard-index mapping."""

    #: Topology-sidecar tag (see :mod:`repro.sharding.topology`).
    kind = "abstract"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("a sharded catalog needs at least one shard")
        self.shards = shards

    def route(self, object_id: int, owner: str = "") -> int:
        """The shard index in ``[0, shards)`` owning this object."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind} over {self.shards} shard(s)"


class HashRouter(ShardRouter):
    """Partition by object id (the default layout)."""

    kind = "hash"

    def route(self, object_id: int, owner: str = "") -> int:
        return _mix64(object_id) % self.shards


class UserRouter(ShardRouter):
    """Partition by owner, falling back to id-hash for ownerless
    objects so they still spread instead of piling onto shard 0."""

    kind = "user"

    def route(self, object_id: int, owner: str = "") -> int:
        if not owner:
            return _mix64(object_id) % self.shards
        return zlib.crc32(owner.encode("utf-8")) % self.shards


_ROUTERS = {HashRouter.kind: HashRouter, UserRouter.kind: UserRouter}


def router_for(kind: str, shards: int) -> ShardRouter:
    """Instantiate a router by its topology tag (``hash`` / ``user``)."""
    try:
        cls = _ROUTERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown shard router {kind!r} (known: {sorted(_ROUTERS)})"
        ) from None
    return cls(shards)
