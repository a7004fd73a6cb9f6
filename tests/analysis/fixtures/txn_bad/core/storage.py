"""Fixture: catalog mutations outside any transaction (TXN01)."""


class BadStore:
    def save(self, row):
        # Engine mutation with no transaction context.
        self.db.table("objects").insert(row)

    def wipe(self):
        # SQL mutation with no transaction context.
        self.conn.execute("DELETE FROM objects")

    def waived(self, row):
        self.db.table("objects").insert(row)  # reprolint: ignore[TXN01] fixture waiver

    def purge(self, rowids):
        # Engine delete with no transaction context.
        self.db.table("objects").delete_rowids(rowids)


class ShellStore:
    def store(self, rows):
        def write():
            self._insert_rows("objects", rows)

        self.run_transaction("store_object", write)


class LeakyBackend(ShellStore):
    def _insert_rows(self, table, rows):
        # Transaction-only via the inherited shell ... until repair()
        # below calls it bare.
        self.conn.executemany(_INSERT_SQL[table], rows)

    def repair(self, rows):
        self._insert_rows("objects", rows)


_INSERT_SQL = {"objects": "INSERT INTO objects VALUES (?)"}
