"""Fixture: sqlite side of the PAR01 drift."""

from ..core.storage import HybridStore


class SqliteHybridStore(HybridStore):
    def _insert_rows(self, table, rows):
        pass

    def _delete_rows(self, table, object_id, **equals):
        pass

    def checkpoint(self):
        """Public method absent from the base interface."""
