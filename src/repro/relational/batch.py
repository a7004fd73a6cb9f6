"""Sorted id-vector kernels.

The IR interpreter passes object ids between plan stages as sorted,
duplicate-free lists; combining two stages is an intersection of two
such vectors.  Deliberately dependency-free and kernel-shaped: a flat
function over lists, no per-row method dispatch inside the loop.
"""

from __future__ import annotations

from typing import List, Sequence


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Merge-intersect two sorted, duplicate-free id vectors."""
    # Probe the smaller side against the larger when sizes are skewed:
    # the merge walk is O(n+m), the probe walk O(n log m)-ish via the
    # hash; for id vectors the set probe wins once the skew is real.
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    if len(b) > 8 * len(a):
        bs = set(b)
        return [x for x in a if x in bs]
    out: List[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out
