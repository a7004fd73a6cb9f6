"""Fixture: both backends match the base interface (PAR01-clean)."""

import abc


class HybridStore(abc.ABC):
    @abc.abstractmethod
    def _insert_rows(self, table, rows):
        ...

    @abc.abstractmethod
    def _delete_rows(self, table, object_id, **equals):
        ...

    def store_object(self, object_id, shred):
        """The write algorithms are concrete, on the base."""
        self._insert_rows("objects", [(object_id,)])

    def close(self):
        pass


class MemoryHybridStore(HybridStore):
    def _insert_rows(self, table, rows):
        pass

    def _delete_rows(self, table, object_id, **equals):
        pass

    def _journal(self):
        """Private helpers may differ per backend."""
