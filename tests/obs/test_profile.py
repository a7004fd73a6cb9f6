"""QueryProfile unit tests: contextvar activation, row-flow derivation
from plan actuals, wait attribution, and rendering."""

import threading

from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op
from repro.core.logical import build_plan
from repro.core.query import shred_query
from repro.grid import lead_schema
from repro.obs import QueryProfile, collecting, current_profile
from repro.obs.metrics import MetricsRegistry

DOCS = [
    """<LEADresource><resourceID>r{i}</resourceID><data><idinfo>
    <keywords><theme><themekey>{kw}</themekey></theme></keywords>
    </idinfo></data></LEADresource>""".format(i=i, kw=kw)
    for i, kw in enumerate(["rain", "rain", "wind"])
]


def _catalog():
    catalog = HybridCatalog(lead_schema(), metrics=MetricsRegistry())
    for i, doc in enumerate(DOCS):
        catalog.ingest(doc, name=f"d{i}")
    return catalog


def _query(keyword="rain", op=Op.CONTAINS):
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", keyword, op)
    )


class TestContextVar:
    def test_no_profile_by_default(self):
        assert current_profile() is None

    def test_collecting_installs_and_resets(self):
        profile = QueryProfile()
        with collecting(profile) as active:
            assert active is profile
            assert current_profile() is profile
        assert current_profile() is None
        assert profile.total_seconds is not None

    def test_collecting_resets_on_error(self):
        profile = QueryProfile()
        try:
            with collecting(profile):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_profile() is None

    def test_profiles_are_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_profile()

        with collecting(QueryProfile()):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other"] is None


class TestRowFlow:
    def test_stages_derived_from_actuals(self):
        catalog = _catalog()
        shredded = catalog.shred_query(_query())
        plan = build_plan(shredded)
        catalog.store.match_objects(plan)
        profile = QueryProfile()
        profile.record_plan(plan, backend="memory")
        kinds = profile.stage_names()
        assert kinds[0] == "ElementSeek"
        assert kinds[-1] == "ObjectIntersect"
        seek = profile.stages[0]
        assert seek.rows_in == 0
        assert seek.rows_out == 2  # two rain documents
        assert profile.stages[-1].rows_out == 2
        assert not profile.short_circuited

    def test_short_circuit_detected(self):
        catalog = _catalog()
        shredded = catalog.shred_query(_query("no_such_keyword", Op.EQ))
        plan = build_plan(shredded)
        catalog.store.match_objects(plan)
        profile = QueryProfile()
        profile.record_plan(plan, backend="memory")
        assert profile.short_circuited
        assert profile.rows_out()[0] == 0
        assert "short-circuited" in profile.describe()

    def test_unexecuted_stage_seconds_default_zero(self):
        catalog = _catalog()
        shredded = catalog.shred_query(_query())
        plan = build_plan(shredded)
        catalog.store.match_objects(plan)
        profile = QueryProfile()  # stage_seconds never filled
        profile.record_plan(plan, backend="memory")
        assert all(stage.seconds == 0.0 for stage in profile.stages)

    def test_stage_seconds_are_the_gaps_between_marks(self):
        catalog = _catalog()
        catalog.query(_query(), profile=True)
        profile = catalog.last_profile
        marks = profile.marks
        # One mark as the run starts, one as each stage ends.
        assert len(marks) == len(profile.stages) + 1
        assert marks == sorted(marks)
        assert [s.seconds for s in profile.stages] == [
            end - start for start, end in zip(marks, marks[1:])
        ]

    def test_short_circuit_times_only_the_stages_that_ran(self):
        catalog = _catalog()
        catalog.query(_query("nothing-matches", Op.EQ), profile=True)
        profile = catalog.last_profile
        assert profile.short_circuited
        assert len(profile.marks) == 2  # the start and the one seek
        (seek_key,) = profile.stage_seconds
        assert seek_key == profile.stages[0].key
        assert all(s.seconds == 0.0 for s in profile.stages[1:])

    def test_as_dict_round_trips_stage_keys(self):
        catalog = _catalog()
        explanation = catalog.explain(_query(), analyze=True)
        dumped = explanation.profile.as_dict()
        kinds = [s["kind"] for s in dumped["stages"]]
        assert kinds == explanation.profile.stage_names()
        assert dumped["backend"] == "memory"
        assert [s["rows_out"] for s in dumped["stages"]] == explanation.profile.rows_out()


class TestWaitsAndFlags:
    def test_add_wait_accumulates(self):
        profile = QueryProfile()
        profile.add_wait("lock", 0.25)
        profile.add_wait("lock", 0.25)
        profile.add_wait("pool", 0.1)
        assert profile.waits["lock"] == 0.5
        assert profile.waits["pool"] == 0.1

    def test_finish_idempotent(self):
        profile = QueryProfile()
        profile.finish()
        first = profile.total_seconds
        profile.finish()
        assert profile.total_seconds == first

    def test_result_cache_hit_shape(self):
        profile = QueryProfile()
        profile.result_cache_hit = True
        profile.finish()
        assert profile.stages == []
        assert "result cache" in profile.describe()
        as_dict = profile.as_dict()
        assert as_dict["result_cache_hit"] is True
        assert as_dict["stages"] == []
