"""Fixture: backend interface drift (PAR01)."""

import abc


class HybridStore(abc.ABC):
    @abc.abstractmethod
    def _insert_rows(self, table, rows):
        ...

    @abc.abstractmethod
    def _delete_rows(self, table, object_id, **equals):
        ...

    def close(self):
        pass


class MemoryHybridStore(HybridStore):
    def _insert_rows(self, table, rows):
        pass

    # _delete_rows is missing — abstract primitive not overridden.

    def vacuum(self):
        """Public method that exists on no other backend."""
