"""Each rule flags its seeded fixture violations and passes the
corrected fixture — the acceptance contract for ``repro lint``."""

from repro.analysis import active
from repro.analysis.rules import (
    FaultSiteRule,
    GuardedFieldRule,
    LockOrderRule,
    LockReachabilityRule,
    MetricNameRule,
    ResourceLifecycleRule,
    TxnSafetyRule,
)
from repro.obs.names import EventSpec, MetricSpec, SeriesSpec

from .conftest import lint_fixture


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestTxnSafety:
    def test_flags_unbracketed_mutations(self):
        findings = lint_fixture("txn_bad", TxnSafetyRule())
        live = active(findings)
        assert len(live) == 4
        assert {f.line for f in live} == {7, 11, 18, 33}
        assert all(f.rule_id == "TXN01" for f in live)
        assert any("insert" in f.message for f in live)
        assert any("delete_rowids" in f.message for f in live)
        assert any("execute" in f.message for f in live)

    def test_pragma_waives_but_stays_in_report(self):
        findings = lint_fixture("txn_bad", TxnSafetyRule())
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].line == 14

    def test_clean_fixture_passes(self):
        assert lint_fixture("txn_good", TxnSafetyRule()) == []

    def test_txn_only_helper_is_safe(self):
        # _append mutates but is only reachable via run_transaction
        # callers — the fixpoint must classify it as transaction-only.
        findings = lint_fixture("txn_good", TxnSafetyRule())
        assert not [f for f in findings if "_append" in f.message]

    def test_primitive_is_txn_only_through_the_inherited_shell(self):
        # RowBackend._insert_rows runs a statement from a module-level
        # table and is called only by ShellStore.store's transaction;
        # LeakyBackend adds one bare call and loses the proof.
        assert lint_fixture("txn_good", TxnSafetyRule()) == []
        leaks = [
            f for f in active(lint_fixture("txn_bad", TxnSafetyRule()))
            if "LeakyBackend._insert_rows" in f.message
        ]
        assert [f.line for f in leaks] == [33]
        assert "executemany" in leaks[0].message


class TestFaultSites:
    def rule(self):
        return FaultSiteRule(
            statement_sites=frozenset({"insert:objects"}),
            transaction_sites=frozenset({"store_object"}),
        )

    def test_flags_unregistered_and_dynamic_sites(self):
        findings = lint_fixture("flt_bad", self.rule())
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "insert:unknowns" in messages
        assert "not_a_registered_op" in messages
        assert "dynamic fault site" in messages

    def test_clean_fixture_passes_with_coverage(self):
        findings = lint_fixture(
            "flt_good", self.rule(), fault_tests="flt_tests_covered"
        )
        assert findings == []

    def test_uncovered_site_is_flagged(self):
        findings = lint_fixture(
            "flt_good", self.rule(), fault_tests="flt_tests_uncovered"
        )
        assert len(findings) == 1
        assert "insert:objects" in findings[0].message
        assert "not exercised" in findings[0].message

    def test_coverage_skipped_without_test_tree(self):
        # Fixture runs without a tests/faults view must not drown in
        # coverage findings.
        assert lint_fixture("flt_good", self.rule()) == []


class TestMetricNames:
    REGISTRY = {
        s.name: s
        for s in (
            MetricSpec("widgets_total", "counter", "widgets made"),
            MetricSpec("queue_depth", "gauge", "queued widgets"),
            MetricSpec("queue_depth_total", "gauge", "declared gauge"),
            MetricSpec("latency_seconds", "histogram", "widget latency",
                       ("op",)),
        )
    }

    EVENTS_REGISTRY = {
        s.name: s
        for s in (
            EventSpec("widget_made", "a widget was made", ("count",)),
        )
    }

    SERIES_REGISTRY = {
        s.name: s
        for s in (
            SeriesSpec("widget_qps", "rate", "widgets per second",
                       ("widgets_total",)),
        )
    }

    def rule(self):
        return MetricNameRule(
            registry=dict(self.REGISTRY),
            events_registry=dict(self.EVENTS_REGISTRY),
            series_registry=dict(self.SERIES_REGISTRY),
        )

    def test_flags_every_failure_mode(self):
        findings = lint_fixture("obs_bad", self.rule())
        messages = [f.message for f in findings]
        assert len(findings) == 11
        assert any("2 call sites" in m for m in messages)
        assert any("'surprises_total' is not declared" in m for m in messages)
        assert any("'widget_count' is not declared" in m for m in messages)
        assert any("must end in '_total'" in m for m in messages)
        assert any("declared as a gauge, created as a counter" in m
                   for m in messages)
        assert any("('queue',)" in m and "('op',)" in m for m in messages)
        assert any("dynamic metric name" in m for m in messages)
        assert any("event 'surprise_event' is not declared" in m
                   for m in messages)
        assert any("undeclared field 'color'" in m for m in messages)
        assert any("dynamic event name" in m for m in messages)
        assert any("series 'surprise_series' is not declared" in m
                   for m in messages)

    def test_clean_fixture_passes(self):
        assert lint_fixture("obs_good", self.rule()) == []

    def test_spec_resolution_allows_dynamic_names(self):
        findings = lint_fixture("obs_good", self.rule())
        assert not [f for f in findings if "dynamic" in f.message]

    def test_emit_has_no_single_site_requirement(self):
        # Emission is not registration: the same event may be emitted
        # from many call sites without a finding.
        findings = lint_fixture("obs_good", self.rule())
        assert not [f for f in findings if "call sites" in f.message]


class TestLockReachability:
    def test_flags_unlocked_entry_points(self):
        findings = active(lint_fixture("lck1_bad", LockReachabilityRule()))
        assert len(findings) == 2
        assert all(f.rule_id == "LCK01" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "BadStore.has_object is a read entry point" in messages
        assert "BadStore.store_object is a write entry point" in messages

    def test_locked_entries_pass_through_any_path(self):
        # GoodStore.store_object reaches run_transaction indirectly and
        # has_object reaches read_locked lexically — both discharge.
        assert active(lint_fixture("lck1_good", LockReachabilityRule())) == []


class TestLockOrder:
    def test_flags_upgrade_worker_and_cycle(self):
        findings = active(lint_fixture("lck1_bad", LockOrderRule()))
        assert len(findings) == 2
        assert all(f.rule_id == "LCK02" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "read→write upgrade on BadStore.rwlock" in messages
        assert "lock-order cycle" in messages

    def test_cycle_names_both_locks(self):
        findings = active(lint_fixture("lck1_bad", LockOrderRule()))
        cycle = [f for f in findings if "cycle" in f.message]
        assert len(cycle) == 1
        assert "ShardedCatalog._route_lock" in cycle[0].message
        assert "ShardedCatalog._stats_lock" in cycle[0].message

    def test_consistent_order_and_lock_free_workers_pass(self):
        assert active(lint_fixture("lck1_good", LockOrderRule())) == []


class TestGuardedFields:
    def test_flags_unlocked_mutation_of_guarded_field(self):
        findings = active(lint_fixture("grd1_bad", GuardedFieldRule()))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "GRD01"
        assert "Router._locations is guarded by Router._lock" in finding.message
        assert "evict()" in finding.message

    def test_reads_and_init_mutations_are_exempt(self):
        # location_of reads without the lock; __init__ populates before
        # the object is shared — neither is a finding.
        assert active(lint_fixture("grd1_good", GuardedFieldRule())) == []


class TestResourceLifecycle:
    def test_flags_leak_discard_and_bare_yield(self):
        findings = active(lint_fixture("res1_bad", ResourceLifecycleRule()))
        assert len(findings) == 3
        assert all(f.rule_id == "RES01" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "never released" in messages
        assert "discarded" in messages

    def test_yield_is_not_a_transfer(self):
        # The generator context manager without try/finally is one of
        # the three findings (line 27 in the fixture).
        findings = active(lint_fixture("res1_bad", ResourceLifecycleRule()))
        assert any(f.line == 27 for f in findings)

    def test_ownership_idioms_pass(self):
        assert active(lint_fixture("res1_good", ResourceLifecycleRule())) == []
