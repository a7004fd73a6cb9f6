"""Fixture: sqlite side of the PAR01-clean pair."""

from ..core.storage import HybridStore


class SqliteHybridStore(HybridStore):
    def _insert_rows(self, table, rows):
        pass

    def _delete_rows(self, table, object_id, **equals):
        pass

    def close(self):
        self.connection.close()

    def _statement_site(self, sql):
        """Private helpers may differ per backend."""
