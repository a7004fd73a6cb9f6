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
