"""LCK fixture: a sharding facade with swapped lock order."""

import threading


class _ShardStore:
    def _reader(self):
        return None

    def match_objects(self, criteria):
        with self._reader() as cur:
            return cur.fetch(criteria)


class ShardedCatalog:
    def __init__(self, shards):
        self._route_lock = threading.RLock()
        self._stats_lock = threading.RLock()
        self.shards = list(shards)

    def ingest(self, document):
        with self._route_lock:
            with self._stats_lock:
                return self.shards[0].run_transaction("ingest", lambda: None)

    def delete(self, object_id):
        with self._stats_lock:
            # LCK02: opposite nesting order to ingest() -> cycle.
            with self._route_lock:
                self.shards[0].run_transaction("delete", lambda: None)

    def query(self, criteria):
        with self._route_lock:
            shards = list(self.shards)
        return [shard.match_objects(criteria) for shard in shards]
