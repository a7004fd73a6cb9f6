"""Unit tests for the hybrid shredder (paper §3)."""

import sys
import threading

import pytest

from repro.core import (
    AnnotatedSchema,
    DefinitionRegistry,
    DynamicSpec,
    Shredder,
    ValueType,
    attribute,
    infer_value_type,
    melement,
    structural,
    sub_attribute,
)
from repro.errors import DefinitionError, ShredError, ValidationError
from repro.xmlkit import parse


@pytest.fixture()
def schema():
    return AnnotatedSchema(
        structural(
            "root",
            attribute("rid", required=True),
            structural(
                "body",
                attribute(
                    "box",
                    melement("width", value_type=ValueType.FLOAT),
                    melement("label"),
                    sub_attribute("inner", melement("depth", value_type=ValueType.INTEGER)),
                    repeatable=True,
                ),
                attribute("note", melement("text")),
            ),
            attribute("dyn", dynamic=DynamicSpec(), repeatable=True),
        )
    )


@pytest.fixture()
def registry(schema):
    r = DefinitionRegistry(schema)
    grid = r.define_attribute("grid", "ARPS", host="dyn")
    r.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
    stretch = r.define_attribute("stretch", "ARPS", host="dyn", parent=grid)
    r.define_element(stretch, "dzmin", "ARPS", ValueType.FLOAT)
    return r


@pytest.fixture()
def shredder(schema, registry):
    return Shredder(schema, registry)


DOC = """
<root>
  <rid>object-1</rid>
  <body>
    <box><width>2.5</width><label>first</label>
         <inner><depth>3</depth></inner></box>
    <box><width>4.0</width></box>
    <note><text>hello</text></note>
  </body>
  <dyn>
    <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
    <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000.0</attrv></attr>
    <attr><attrlabl>stretch</attrlabl><attrdefs>ARPS</attrdefs>
      <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>100</attrv></attr>
    </attr>
  </dyn>
</root>
"""


class TestStructuralShredding:
    def test_clob_per_attribute_instance(self, shredder):
        result = shredder.shred(parse(DOC))
        # rid, box x2, note, dyn
        assert len(result.clobs) == 5

    def test_clobs_are_verbatim(self, shredder):
        result = shredder.shred(parse(DOC))
        box_clobs = [c for c in result.clobs if c.text.startswith("<box>")]
        assert "<width>2.5</width>" in box_clobs[0].text

    def test_same_sibling_clob_sequence(self, shredder, schema):
        result = shredder.shred(parse(DOC))
        box_order = schema.attribute_by_tag("box").order
        seqs = sorted(c.clob_seq for c in result.clobs if c.schema_order == box_order)
        assert seqs == [1, 2]

    def test_attribute_instances(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        box_def = registry.lookup_attribute("box", "")
        boxes = [a for a in result.attributes if a.attr_id == box_def.attr_id]
        assert [a.seq_id for a in boxes] == [1, 2]

    def test_element_values_typed(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        box_def = registry.lookup_attribute("box", "")
        width_def = registry.lookup_element(box_def, "width", "")
        widths = [e for e in result.elements if e.elem_id == width_def.elem_id]
        assert sorted(e.value_num for e in widths) == [2.5, 4.0]

    def test_element_sequence_local_to_instance(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        box_def = registry.lookup_attribute("box", "")
        first_box = [
            e for e in result.elements
            if e.attr_id == box_def.attr_id and e.seq_id == 1
        ]
        assert [e.elem_seq for e in first_box] == [1, 2]

    def test_leaf_attribute_value_shredded(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        rid_def = registry.lookup_attribute("rid", "")
        values = [e.value_text for e in result.elements if e.attr_id == rid_def.attr_id]
        assert values == ["object-1"]

    def test_structural_sub_attribute_instance_and_inverted(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        box_def = registry.lookup_attribute("box", "")
        inner_def = registry.lookup_attribute("inner", "", parent=box_def)
        inner_rows = [a for a in result.attributes if a.attr_id == inner_def.attr_id]
        assert len(inner_rows) == 1
        links = [
            i for i in result.inverted
            if i.desc_attr_id == inner_def.attr_id and i.distance == 1
        ]
        assert len(links) == 1
        assert links[0].anc_attr_id == box_def.attr_id

    def test_self_rows_distance_zero(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        box_def = registry.lookup_attribute("box", "")
        selfs = [
            i for i in result.inverted
            if i.desc_attr_id == box_def.attr_id and i.distance == 0
        ]
        assert len(selfs) == 2


class TestDynamicShredding:
    def test_definition_resolved_by_name_and_source(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        grid = registry.lookup_attribute("grid", "ARPS")
        assert any(a.attr_id == grid.attr_id for a in result.attributes)

    def test_recursion_disappears(self, shredder, registry):
        """The nested attr becomes a flat sub-attribute instance plus
        inverted-list rows — no recursive structure in the output."""
        result = shredder.shred(parse(DOC))
        grid = registry.lookup_attribute("grid", "ARPS")
        stretch = registry.lookup_attribute("stretch", "ARPS", parent=grid)
        links = [
            i for i in result.inverted
            if i.desc_attr_id == stretch.attr_id and i.anc_attr_id == grid.attr_id
        ]
        assert [l.distance for l in links] == [1]

    def test_dynamic_element_values(self, shredder, registry):
        result = shredder.shred(parse(DOC))
        grid = registry.lookup_attribute("grid", "ARPS")
        dx = registry.lookup_element(grid, "dx", "ARPS")
        assert [e.value_num for e in result.elements if e.elem_id == dx.elem_id] == [1000.0]

    def test_item_with_value_and_children_rejected(self, shredder):
        bad = DOC.replace(
            "<attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>100</attrv></attr>",
            "<attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>100</attrv></attr>"
            "<attrv>5</attrv>",
        )
        with pytest.raises(ShredError, match="both a value and nested"):
            shredder.shred(parse(bad))


class TestValidationPolicies:
    UNKNOWN_DYN = """
    <root><rid>x</rid>
      <dyn>
        <enttyp><enttypl>mystery</enttypl><enttypds>NOWHERE</enttypds></enttyp>
        <attr><attrlabl>p</attrlabl><attrdefs>NOWHERE</attrdefs><attrv>1</attrv></attr>
      </dyn>
    </root>
    """

    def test_store_policy_keeps_clob_skips_rows(self, schema, registry):
        shredder = Shredder(schema, registry, on_unknown="store")
        result = shredder.shred(parse(self.UNKNOWN_DYN))
        dyn_order = schema.attribute_by_tag("dyn").order
        assert any(c.schema_order == dyn_order for c in result.clobs)
        assert all(a.attr_id != 0 for a in result.attributes)
        assert len(result.warnings) == 1
        grid_like = [a for a in result.attributes]
        assert len(grid_like) == 1  # only rid

    def test_reject_policy_raises(self, schema, registry):
        shredder = Shredder(schema, registry, on_unknown="reject")
        with pytest.raises(ValidationError, match="not defined"):
            shredder.shred(parse(self.UNKNOWN_DYN))

    def test_define_policy_auto_registers(self, schema, registry):
        shredder = Shredder(schema, registry, on_unknown="define")
        result = shredder.shred(parse(self.UNKNOWN_DYN))
        assert not result.warnings
        assert registry.lookup_attribute("mystery", "NOWHERE") is not None
        assert [d.name for d in result.defined] == ["mystery"]

    def test_define_policy_infers_types(self, schema, registry):
        shredder = Shredder(schema, registry, on_unknown="define")
        shredder.shred(parse(self.UNKNOWN_DYN))
        mystery = registry.lookup_attribute("mystery", "NOWHERE")
        p = registry.lookup_element(mystery, "p", "NOWHERE")
        assert p.value_type is ValueType.INTEGER

    def test_invalid_policy_name(self, schema, registry):
        with pytest.raises(ValueError):
            Shredder(schema, registry, on_unknown="panic")

    def test_bad_value_stored_not_shredded(self, schema, registry):
        doc = DOC.replace("<width>2.5</width>", "<width>not-a-number</width>")
        shredder = Shredder(schema, registry, on_unknown="store")
        result = shredder.shred(parse(doc))
        assert any("not a valid float" in w for w in result.warnings)

    def test_bad_value_rejected_in_strict(self, schema, registry):
        doc = DOC.replace("<width>2.5</width>", "<width>not-a-number</width>")
        shredder = Shredder(schema, registry, on_unknown="reject")
        with pytest.raises(ValidationError):
            shredder.shred(parse(doc))


class TestStructureErrors:
    def test_wrong_root(self, shredder):
        with pytest.raises(ShredError, match="root"):
            shredder.shred(parse("<other/>"))

    def test_unknown_structural_element(self, shredder):
        with pytest.raises(ShredError, match="not in the\n?.*schema|not in the schema"):
            shredder.shred(parse("<root><rid>x</rid><bogus/></root>"))

    def test_missing_required_element(self, shredder):
        with pytest.raises(ShredError, match="required"):
            shredder.shred(parse("<root><body><note><text>t</text></note></body></root>"))

    def test_cardinality_violation(self, shredder):
        with pytest.raises(ShredError, match="single instance"):
            shredder.shred(parse("<root><rid>a</rid><rid>b</rid></root>"))

    def test_text_inside_structural_element(self, shredder):
        with pytest.raises(ShredError, match="unexpected text"):
            shredder.shred(parse("<root><rid>x</rid><body>stray</body></root>"))

    def test_missing_entity_block_warns(self, schema, registry):
        doc = "<root><rid>x</rid><dyn><attr><attrlabl>p</attrlabl></attr></dyn></root>"
        result = Shredder(schema, registry).shred(parse(doc))
        assert any("entity block" in w for w in result.warnings)


def _extra_doc(label="extra"):
    """DOC's ``grid`` section with one more nested item, ``label``."""
    return DOC.replace(
        "</dyn>",
        f"<attr><attrlabl>{label}</attrlabl><attrdefs>ARPS</attrdefs>"
        "<attr><attrlabl>depth</attrlabl><attrdefs>ARPS</attrdefs>"
        "<attrv>7</attrv></attr></attr></dyn>",
    )


class TestPlanInvalidation:
    """A shred plan is per user and per registry version: a definition
    added after a plan was compiled is seen by the next document."""

    def _rows_of(self, result, attr_def):
        return [a for a in result.attributes if a.attr_id == attr_def.attr_id]

    def test_private_dynamic_sub_attribute_defined_after_plan(
        self, shredder, registry
    ):
        first = shredder.shred(parse(_extra_doc()), user="alice")
        assert any("('extra', 'ARPS') is not defined" in w for w in first.warnings)
        grid = registry.lookup_attribute("grid", "ARPS")
        extra = registry.define_attribute(
            "extra", "ARPS", host="dyn", parent=grid, user="alice")
        mine = shredder.shred(parse(_extra_doc()), user="alice")
        assert len(self._rows_of(mine, extra)) == 1
        assert not any("('extra', 'ARPS') is not defined" in w for w in mine.warnings)
        bobs = shredder.shred(parse(_extra_doc()), user="bob")
        assert self._rows_of(bobs, extra) == []
        assert any("('extra', 'ARPS') is not defined" in w for w in bobs.warnings)

    def test_private_element_defined_after_plan(self, shredder, registry):
        grid = registry.lookup_attribute("grid", "ARPS")
        extra = registry.define_attribute(
            "extra", "ARPS", host="dyn", parent=grid, user="alice")
        first = shredder.shred(parse(_extra_doc()), user="alice")
        assert any("('depth', 'ARPS') is not defined" in w for w in first.warnings)
        depth = registry.define_element(
            extra, "depth", "ARPS", ValueType.INTEGER, user="alice")
        mine = shredder.shred(parse(_extra_doc()), user="alice")
        assert [e.value_num for e in mine.elements if e.elem_id == depth.elem_id] == [7.0]
        bobs = shredder.shred(parse(_extra_doc()), user="bob")
        assert [e for e in bobs.elements if e.elem_id == depth.elem_id] == []

    def test_private_structural_sub_attribute_replayed_after_plan(
        self, shredder, registry
    ):
        box = registry.lookup_attribute("box", "")
        shared = registry.lookup_attribute("inner", "", parent=box)
        before = shredder.shred(parse(DOC), user="alice")
        assert len(self._rows_of(before, shared)) == 1
        # A stored user-scoped row, as a reopened catalog replays it.
        registry.rehydrate(
            [(len(registry) + 1, "inner", "", box.attr_id, box.schema_order,
              "alice", 1, 0)], [])
        private = registry.lookup_attribute("inner", "", user="alice", parent=box)
        assert private is not shared
        mine = shredder.shred(parse(DOC), user="alice")
        assert len(self._rows_of(mine, private)) == 1
        assert self._rows_of(mine, shared) == []
        bobs = shredder.shred(parse(DOC), user="bob")
        assert len(self._rows_of(bobs, shared)) == 1
        assert self._rows_of(bobs, private) == []

    def test_define_policy_defines_a_repeated_unknown_label_once(
        self, schema, registry
    ):
        shredder = Shredder(schema, registry, on_unknown="define")
        section = (
            "<dyn><enttyp><enttypl>mystery</enttypl><enttypds>NOWHERE</enttypds></enttyp>"
            "<attr><attrlabl>p</attrlabl><attrv>1</attrv></attr>"
            "<attr><attrlabl>p</attrlabl><attrv>2</attrv></attr></dyn>"
        )
        result = shredder.shred(parse(f"<root><rid>x</rid>{section}{section}</root>"))
        assert [d.name for d in result.defined] == ["mystery"]
        mystery = registry.lookup_attribute("mystery", "NOWHERE")
        p = registry.lookup_element(mystery, "p", "NOWHERE")
        values = [e.value_num for e in result.elements if e.elem_id == p.elem_id]
        assert values == [1.0, 2.0, 1.0, 2.0]
        assert [d for d in registry.elements_of(mystery)] == [p]
        assert not result.warnings

    def test_registry_version_moves_on_every_definition_added(self, schema, registry):
        version = registry.version
        grid = registry.define_attribute("grid", "WRF", host="dyn")
        assert registry.version == version + 1
        registry.define_element(grid, "dx", "WRF", ValueType.FLOAT, user="alice")
        assert registry.version == version + 2
        with pytest.raises(DefinitionError):
            registry.define_attribute("grid", "WRF", host="dyn")
        registry.lookup_attribute("grid", "WRF")
        assert registry.version == version + 2
        Shredder(schema, registry, on_unknown="define").shred(parse(
            "<root><rid>x</rid><dyn><enttyp><enttypl>new</enttypl>"
            "<enttypds>S</enttypds></enttyp><attr><attrlabl>q</attrlabl>"
            "<attrv>1</attrv></attr></dyn></root>"))
        assert registry.version == version + 4
        schema_only = DefinitionRegistry(schema)
        added = (len(registry) - len(schema_only)) + (
            len(list(registry.all_elements())) - len(list(schema_only.all_elements())))
        schema_only.rehydrate(*registry.rows())
        assert schema_only.version == DefinitionRegistry(schema).version + added


class TestConcurrentPlans:
    def test_shreds_see_every_define_finished_before_they_start(
        self, schema, registry
    ):
        """Shreds on four threads (three users and the admin scope)
        against a thread adding definitions: a shred includes every
        element whose definition was added before it began."""
        shredder = Shredder(schema, registry)
        grid = registry.lookup_attribute("grid", "ARPS")
        labels = [f"p{i}" for i in range(40)]
        doc = parse(DOC.replace("</dyn>", "".join(
            f"<attr><attrlabl>{label}</attrlabl><attrdefs>ARPS</attrdefs>"
            "<attrv>1</attrv></attr>" for label in labels) + "</dyn>"))
        defined = [0]  # labels whose definition has been added
        failures = []

        def define_all():
            for label in labels:
                registry.define_element(grid, label, "ARPS", ValueType.INTEGER)
                defined[0] += 1

        def shred_loop(user):
            try:
                while defined[0] < len(labels):
                    expected = set(labels[:defined[0]])
                    result = shredder.shred(doc, user=user)
                    seen = {registry.element(e.elem_id).name for e in result.elements}
                    if not expected <= seen:
                        failures.append((user, sorted(expected - seen)))
            except Exception as exc:  # pragma: no cover - reported below
                failures.append((user, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=shred_loop, args=(user,))
                       for user in (None, "alice", "bob", "carol")]
            threads.append(threading.Thread(target=define_all))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        final = shredder.shred(doc, user="alice")
        assert {registry.element(e.elem_id).name for e in final.elements} >= set(labels)


class TestInferValueType:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("42", ValueType.INTEGER),
            ("-3", ValueType.INTEGER),
            ("4.2", ValueType.FLOAT),
            ("1e-3", ValueType.FLOAT),
            ("hello", ValueType.STRING),
            (".true.", ValueType.STRING),
        ],
    )
    def test_inference(self, raw, expected):
        assert infer_value_type(raw) is expected
