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
