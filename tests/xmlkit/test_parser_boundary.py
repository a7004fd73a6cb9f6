"""The parser as a boundary: any ``str`` in, a ``Document`` or an
``XMLSyntaxError`` out — nothing else, and in time linear in the input."""

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


def seconds(text):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        try:
            parse(text)
        except XMLSyntaxError:
            pass
        best = min(best, time.perf_counter() - started)
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
    """4x the input is 4x the time; a token loop that scans ahead
    (``search``/``finditer``) instead of matching at the cursor
    re-reads what follows every comment and measured 15x."""
    n = 20_000
    small, large = seconds(make(n)), seconds(make(4 * n))
    assert large <= 8 * max(small, 1e-4), (small, large)
