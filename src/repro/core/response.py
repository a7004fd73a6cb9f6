"""Query-response construction (paper §5): one tagger for every store.

A backend reads the requested objects' CLOB rows ``(schema order,
sequence, content)`` by primary key (:meth:`HybridStore._clob_rows`);
:func:`tag_responses` rebuilds each document from them:

1. the CLOB keys ``(schema order, sequence)`` of the object — the text
   is not looked at until stage 4 ("the join can utilize the index
   without accessing the CLOBs until needed in the final join");
2. the node-ancestor inverted list gives the **distinct** wrapper nodes
   the object needs (optional attributes make them differ per object);
3. the global ordering turns each into an opening tag at its order and
   a closing tag after its ``last_child_order`` — no external tagger;
4. the CLOB text is spliced in and one sort of the events yields the
   tagged document.

Events sort by ``(position, sequence, kind, close-depth)``: opening tags
before content at their order (sequence 0), closing tags after
everything at their ``last_child_order`` (sequence ∞), deeper nodes
closing first.  The key is unique per event, so text is never compared.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

_OPEN = 0
_CONTENT = 1
_CLOSE = 2

_INF_SEQ = 1 << 60

#: The schema root's order: it wraps every response, one without CLOBs too.
_ROOT = 1


class ResponseTags:
    """Stages 2–3's schema-sized maps, built once when a store binds its
    schema, from its ordering rows and ancestor pairs
    (:func:`~repro.core.ordering.ancestor_pairs`): each ordered node's
    proper ancestors and its opening/closing tag events."""

    __slots__ = ("ancestors", "events")

    def __init__(
        self,
        order_rows: Sequence[Tuple[int, str, int]],
        ancestor_rows: Iterable[Tuple[int, int]],
    ) -> None:
        self.ancestors: Dict[int, List[int]] = {order: [] for order, _t, _l in order_rows}
        for node, ancestor in ancestor_rows:
            self.ancestors[node].append(ancestor)
        self.events: Dict[int, Tuple[tuple, tuple]] = {
            order: (
                (order, 0, _OPEN, -order, f"<{tag}>"),
                (last, _INF_SEQ, _CLOSE, -order, f"</{tag}>"),
            )
            for order, tag, last in order_rows
        }


def tag_responses(
    clob_rows: Mapping[int, Sequence[Tuple[int, int, str]]], tags: ResponseTags
) -> Dict[int, str]:
    """Tagged XML for each object of ``clob_rows``."""
    ancestors, events_of = tags.ancestors, tags.events
    responses: Dict[int, str] = {}
    for object_id, rows in clob_rows.items():
        required = {_ROOT}
        events: List[tuple] = []
        for order, seq, text in rows:
            required.update(ancestors[order])
            events.append((order, seq, _CONTENT, 0, text))
        for node in required:
            events += events_of[node]
        events.sort()
        responses[object_id] = "".join([event[4] for event in events])
    return responses


def record_response_metrics(registry, responses: Dict[int, str]) -> None:
    """Count built responses.  Every store routes through this one
    helper so the response counters have a single creation call site
    (OBS01)."""
    registry.counter(
        "response_documents_total", "tagged XML responses built"
    ).inc(len(responses))
    registry.counter(
        "response_bytes_total", "bytes of tagged XML serialized"
    ).inc(sum(len(text) for text in responses.values()))
