"""The parser as a boundary: any ``str`` in, a ``Document`` or an
``XMLSyntaxError`` out — nothing else, and in time linear in the input."""

import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import FIG3_DOCUMENT, CorpusConfig, LeadCorpusGenerator
from repro.xmlkit import Document, XMLSyntaxError, parse

CORPUS = LeadCorpusGenerator(CorpusConfig(seed=24))
BASES = [FIG3_DOCUMENT] + [CORPUS.document(i) for i in range(4)] + [
    '<?xml version="1.0"?><!DOCTYPE a [ <!ELEMENT a EMPTY> ]><!-- c -->'
    "<a x=\"1\" y='&lt;2'>t<![CDATA[x<y]]><?pi d?><!-- n --><b z = \"q\"/>&amp;&#65;&#x41;</a> <!-- bye -->\n",
]
MARKUP = "<>/&\"' =!?[]-"


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "truncate", "cut"]))
        if kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(MARKUP)) + text[at:]
        elif kind == "truncate":
            text = text[:at]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 40)) :]
    return text


def assert_document_or_syntax_error(text):
    try:
        result = parse(text)
    except Exception as exc:  # noqa: BLE001 - the point is the exact type
        # XMLSyntaxError subclasses ValueError: a bare ValueError (or an
        # OverflowError, IndexError, RecursionError) must not pass.
        assert type(exc) is XMLSyntaxError, (type(exc).__name__, text[:80])
        assert exc.line >= 1 and exc.column >= 1
        assert 0 <= exc.offset <= len(text)
    else:
        assert isinstance(result, Document)
        start, end = result.root.source_span
        assert text[start] == "<" and text[end - 1] == ">"


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_syntax_error(text):
    assert_document_or_syntax_error(text)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=MARKUP + "ax1#;\n", max_size=40))
def test_arbitrary_text_parses_or_raises_syntax_error(text):
    assert_document_or_syntax_error(text)


def best_seconds(texts, rounds=3):
    """Best-of-``rounds`` parse time of each text.  The texts take turns,
    so that a burst of load on the machine slows them alike instead of
    covering one size and missing the other.  The collector stays on,
    but the heap earlier tests built is frozen (``gc.freeze``): a full
    collection then walks what the parse allocated, not a heap whose
    size depends on which tests ran first."""
    best = [float("inf")] * len(texts)
    gc.collect()
    gc.freeze()
    try:
        for _ in range(rounds):
            for i, text in enumerate(texts):
                started = time.perf_counter()
                try:
                    parse(text)
                except XMLSyntaxError:
                    pass
                best[i] = min(best[i], time.perf_counter() - started)
    finally:
        gc.unfreeze()
    return best


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda n: "<a>" + "<!---->" * n + "</a>", id="comments"),
        pytest.param(lambda n: "<a>" + "<![CDATA[]]>" * n + "</a>", id="cdata"),
        pytest.param(lambda n: "<a>" + "<?p?>" * n + "</a>", id="pis"),
        pytest.param(lambda n: "<a>" + "x<b/>" * n + "</a>", id="text+empty"),
        pytest.param(lambda n: "<a" + " " * n, id="open tag, spaces"),
        pytest.param(lambda n: "<" + "a" * n, id="open tag, name"),
        pytest.param(lambda n: '<a x="' + "y" * n, id="open attribute value"),
        pytest.param(lambda n: "<a" + "".join(f' x{i}="1"' for i in range(n)), id="open tag, attributes"),
    ],
)
def test_parse_time_is_linear(make):
    """4x the input is about 4x the time; a token loop that scans ahead
    (``search``/``finditer``) instead of matching at the cursor
    re-reads what follows every comment and measured 15x.

    The bound comes from recorded ratios of the slowest case,
    ``text+empty`` (80k retained leaf elements for the collector to
    walk), on a 2-core x86-64 Linux VM with Python 3.11, pytest running
    that one case: 50 runs alone, median 4.9, p95 5.1, max 7.6; 50 runs
    beside a CPU-bound process, median 4.9, p95 5.3, max 6.4; five full
    tier-1 runs, 5.1-5.6.  Before the earlier tests' heap was frozen
    while timing, full tier-1 runs read 7.4-9.9: full collections
    walked the ~100k objects those tests left.  10x clears the worst
    recorded ratio by 1.3x and stays under a quadratic loop's 16x."""
    n = 20_000
    small, large = best_seconds([make(n), make(4 * n)])
    assert large <= 10 * max(small, 1e-4), (small, large)
