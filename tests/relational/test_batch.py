"""The sorted id-vector intersection kernel."""

from hypothesis import given
from hypothesis import strategies as st

from repro.relational import intersect_sorted


class TestIntersect:
    def test_merge_walk(self):
        assert intersect_sorted([1, 3, 5, 7], [3, 4, 5, 6]) == [3, 5]

    def test_empty_sides(self):
        assert intersect_sorted([], [1, 2]) == []
        assert intersect_sorted([1, 2], []) == []

    def test_skewed_sizes_take_probe_path(self):
        small = [5, 500, 995]
        big = list(range(1000))
        assert intersect_sorted(small, big) == small
        assert intersect_sorted(big, small) == small


id_vectors = st.sets(st.integers(min_value=0, max_value=400)).map(sorted)


@given(id_vectors, id_vectors)
def test_intersect_matches_set_intersection(a, b):
    # Covers both the merge walk and the >8x-skew probe path.
    assert intersect_sorted(a, b) == sorted(set(a) & set(b))
