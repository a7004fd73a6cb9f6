"""Fixture: every mutation is transaction-bracketed (TXN01-clean)."""


class GoodStore:
    def save(self, row):
        def write():
            self._append(row)

        self.run_transaction("store_object", write)

    def save_inline(self, row):
        self.run_transaction(
            "store_object", lambda: self.db.table("objects").insert(row)
        )

    def _append(self, row):
        # Reached only through run_transaction callers: txn-only helper.
        self.db.table("objects").insert(row)
        self.conn.execute("INSERT INTO objects VALUES (?)", row)

    def read_all(self):
        # Reads never need a transaction.
        return self.conn.execute("SELECT * FROM objects").fetchall()


class ShellStore:
    """The write algorithm lives on the base; backends supply rows."""

    def store(self, rows):
        def write():
            self._insert_rows("objects", rows)

        self.run_transaction("store_object", write)


class RowBackend(ShellStore):
    def _insert_rows(self, table, rows):
        # Reached only from the inherited shell: txn-only by dispatch.
        self.conn.executemany(_INSERT_SQL[table], rows)


_INSERT_SQL = {"objects": "INSERT INTO objects VALUES (?)"}
