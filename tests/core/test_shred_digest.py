"""The shredder's output, pinned by digest.

Each case shreds a fixed set of inputs and hashes every row and warning
the shredder produced (or the error it raised).  The pinned digests were
taken from the seed shredder's walk; any change to the shredder must
reproduce them exactly — same rows, same order, same messages — so a
rewrite of the walk is checked against the old one without keeping the
old walk around as an oracle.

If a digest moves, the rows moved: find out why before re-pinning.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Optional

import pytest

from repro.core import HybridCatalog, Shredder
from repro.core.schema import NodeKind
from repro.errors import ReproError
from repro.grid import (
    FIG3_DOCUMENT,
    CorpusConfig,
    LeadCorpusGenerator,
    PlantedMarker,
    define_fig3_attributes,
    lead_schema,
)
from repro.xmlkit import Element, parse
from tests.integration.test_random_schema_properties import (
    annotated_schemas,
    generate_document,
)

#: The E-series benchmark corpus shape (``benchmarks/conftest.py``).
BASE_CONFIG = CorpusConfig(
    seed=2006,
    themes=2,
    places=1,
    keys_per_theme=3,
    dynamic_groups=2,
    params_per_group=6,
    dynamic_depth=2,
    planted=[
        PlantedMarker("marker_sel_100", 100),
        PlantedMarker("marker_sel_20", 20),
        PlantedMarker("marker_sel_5", 5),
        PlantedMarker("marker_sel_2", 2),
    ],
)
CORPUS_SIZE = 320


class _Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))
        self._hash.update(b"\x00")
        self.count += 1

    def shred(self, call: Callable[[], object]) -> None:
        """Digest one shred: its rows, warnings and definitions, or the
        error it raised."""
        try:
            result = call()
        except ReproError as exc:
            self.add(f"{type(exc).__name__}: {exc}")
            return
        for rows in (result.clobs, result.attributes, result.elements,
                     result.inverted):
            self.add(repr([tuple(row) for row in rows]))
        self.add(repr(result.warnings))
        self.add(repr([(d.attr_id, d.name, d.source, d.parent_id, d.scope)
                       for d in result.defined]))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _fragments(document: str, tags) -> List[Element]:
    return [node for node in parse(document).root.iter() if node.tag in tags]


def lead_corpus() -> _Digest:
    """The benchmark corpus, whole documents and add_attribute fragments."""
    generator = LeadCorpusGenerator(BASE_CONFIG)
    catalog = HybridCatalog(lead_schema())
    generator.register_definitions(catalog)
    shredder = catalog.shredder
    digest = _Digest()
    for index, document in enumerate(generator.documents(CORPUS_SIZE)):
        digest.shred(lambda: shredder.shred(parse(document)))
        if index % 8:
            continue
        counts = {}
        for row in shredder.shred(parse(document)).attributes:
            counts[row.attr_id] = max(counts.get(row.attr_id, 0), row.seq_id)
        for seq, fragment in enumerate(
                _fragments(document, ("detailed", "theme", "bounding")), start=2):
            digest.shred(lambda: shredder.shred_attribute_fragment(
                parse(fragment.to_xml()), clob_seq=seq, seq_base=counts))
    return digest


class _ScopedDefinitions:
    """Forwards ``register_definitions`` to a catalog, registering every
    third attribute privately for ``alice`` and skipping every seventh
    element, so some content resolves per user and some not at all."""

    def __init__(self, catalog: HybridCatalog) -> None:
        self.catalog = catalog
        self.attributes = 0
        self.elements = 0

    def define_attribute(self, *args, **kwargs):
        self.attributes += 1
        user = "alice" if self.attributes % 3 == 0 else None
        return self.catalog.define_attribute(*args, user=user, **kwargs)

    def define_element(self, *args, **kwargs):
        self.elements += 1
        if self.elements % 7 == 0:
            return None
        return self.catalog.define_element(*args, **kwargs)


def lead_scoped() -> _Digest:
    """Private and missing definitions, shredded as three users."""
    generator = LeadCorpusGenerator(BASE_CONFIG)
    catalog = HybridCatalog(lead_schema())
    generator.register_definitions(_ScopedDefinitions(catalog))
    digest = _Digest()
    for index, document in enumerate(generator.documents(60)):
        user: Optional[str] = (None, "alice", "bob")[index % 3]
        digest.shred(lambda: catalog.shredder.shred(parse(document), user=user))
    return digest


def _random_schema(seed: int):
    """The random-schema strategy's body run with its choices taken from
    ``random.Random(seed)`` instead of hypothesis, so the same schemas
    come back on every run and every hypothesis version."""
    body = annotated_schemas().wrapped_strategy.definition
    return body(_deterministic_draw(random.Random(seed)))


def _deterministic_draw(rng: random.Random):
    """A ``draw`` for the strategies ``annotated_schemas`` uses."""

    def draw(strategy):
        strategy = getattr(strategy, "wrapped_strategy", strategy)
        if hasattr(strategy, "start") and hasattr(strategy, "end"):
            return rng.randint(strategy.start, strategy.end)
        if hasattr(strategy, "elements"):
            return rng.choice(list(strategy.elements))
        if type(strategy).__name__ == "BooleansStrategy":
            return rng.random() < 0.5
        raise TypeError(f"no deterministic draw for {strategy!r}")

    return draw


def _private_sub_attribute(registry) -> None:
    """Replay a stored row that gives ``alice`` her own definition of the
    schema's first structural sub-attribute (a user's definition wins
    over the schema's in every lookup made for her)."""
    for definition in registry.all_attributes():
        if definition.structural and definition.parent_id is not None:
            registry.rehydrate([(
                len(registry) + 1, definition.name, "", definition.parent_id,
                definition.schema_order, "alice", 1, 0,
            )], [])
            return


def random_schemas() -> _Digest:
    """The random-schema property tests' schemas and documents, shredded
    unscoped and for a user with a private structural sub-attribute."""
    digest = _Digest()
    for seed in range(30):
        schema = _random_schema(seed)
        catalog = HybridCatalog(schema)
        _private_sub_attribute(catalog.registry)
        digest.add(repr([(n.tag, n.kind.value, n.order) for n in schema.iter_nodes()]))
        for doc_seed in range(3):
            document = generate_document(schema, seed * 100 + doc_seed).to_xml()
            for user in (None, "alice"):
                digest.shred(lambda: catalog.shredder.shred(parse(document), user=user))
    return digest


#: Fig. 3 with its dynamic content unknown twice over: the same
#: undefined attribute in two ``<detailed>`` sections, and the same
#: undefined label twice in one section.
UNKNOWN_TWICE = FIG3_DOCUMENT.replace(
    "</eainfo>",
    "<detailed><enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>"
    "<attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>7</attrv></attr>"
    "<attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>8.5</attrv></attr>"
    "<attr><attrlabl>mode</attrlabl><attrv>on</attrv></attr>"
    "<attr><attrlabl>empty</attrlabl></attr>"
    "<attr><attrdefs>ARPS</attrdefs><attrv>1</attrv></attr>"
    "</detailed></eainfo>",
)

#: A corpus document with structural content to break.
_CORPUS_DOC = LeadCorpusGenerator(BASE_CONFIG).document(1)

#: Malformed documents: each must fail, or warn, with the same message.
BROKEN = [
    "<other/>",
    "<LEADresource><resourceID>x</resourceID><bogus/></LEADresource>",
    "<LEADresource><data/></LEADresource>",
    "<LEADresource><resourceID>a</resourceID><resourceID>b</resourceID></LEADresource>",
    "<LEADresource><resourceID>x</resourceID>stray</LEADresource>",
    FIG3_DOCUMENT.replace("<themekt>CF NetCDF</themekt>", "<themex>CF</themex>"),
    FIG3_DOCUMENT.replace("<attrv>1000.000</attrv>", "<attrv>abc</attrv>"),
    FIG3_DOCUMENT.replace("<attrlabl>dx</attrlabl>", "<attrlabl>dx</attrlabl><attr/>"),
    FIG3_DOCUMENT.replace("<enttyp>", "<enttypx>").replace("</enttyp>", "</enttypx>"),
    FIG3_DOCUMENT.replace("<enttypds>ARPS</enttypds>", ""),
    _CORPUS_DOC.replace("<westbc>", "<westbc>west").replace("<pubdate>", "<pubdate>x"),
    _CORPUS_DOC.replace("<progress>", "<progress> &amp; "),
]


def unknown_policies() -> _Digest:
    """Unknown dynamic content under each ``on_unknown`` policy, and
    malformed documents."""
    digest = _Digest()
    for policy in ("store", "reject", "define"):
        for user in (None, "alice"):
            catalog = HybridCatalog(lead_schema(), on_unknown=policy)
            for document in (FIG3_DOCUMENT, UNKNOWN_TWICE, UNKNOWN_TWICE):
                digest.shred(lambda: catalog.shredder.shred(parse(document), user=user))
            digest.add(repr(sorted(catalog.registry.rows()[0])))
            digest.add(repr(sorted(catalog.registry.rows()[1])))
        catalog = HybridCatalog(lead_schema(), on_unknown=policy)
        define_fig3_attributes(catalog)
        for document in BROKEN:
            parsed = parse(document)
            digest.shred(lambda: catalog.shredder.shred(parsed))
    shredder = Shredder(lead_schema(), HybridCatalog(lead_schema()).registry)
    for fragment, seq in (("<resourceID>x</resourceID>", 2), ("<data/>", 1)):
        digest.shred(lambda: shredder.shred_attribute_fragment(parse(fragment), seq))
    return digest


CASES = {
    "lead_corpus": (lead_corpus, 2_920,
                    "cc110afe545b7d01b3b8d44d0dd1cbce5be29a241b3e4a1b53b8c82e97546184"),
    "lead_scoped": (lead_scoped, 360,
                    "51c0215eaac2f27b97e62b14b6f517288ab6cdac7cd5aefcb3da10e3c44297e6"),
    "random_schemas": (random_schemas, 1_110,
                       "1b1495567d5fd8e46e822bcc2ab303b039672ee3b2772a13814f55ffface7541"),
    "unknown_policies": (unknown_policies, 188,
                         "efb760f580a2ee410e194525fd2d013228a94567e13cc498750d5b837754fb86"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_shred_rows_match_pinned_digest(case):
    build, count, expected = CASES[case]
    digest = build()
    assert (digest.count, digest.hexdigest()) == (count, expected)


def test_random_schema_documents_cover_every_node_kind():
    """The random-schema case reaches sub-attributes and leaf attributes."""
    kinds = set()
    for seed in range(30):
        schema = _random_schema(seed)
        kinds |= {(n.kind, n.is_element) for n in schema.iter_nodes()}
    assert (NodeKind.SUB_ATTRIBUTE, False) in kinds
    assert (NodeKind.ATTRIBUTE, True) in kinds
