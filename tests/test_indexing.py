import math

import numpy as np
import pytest

from mvortho.indexing import MultiIndexSet


def sizes(d, n):
    """(r_n, R_n) read from a built set: the level shape and ``cumulative``."""
    s = MultiIndexSet.build(d, n)
    return s.level(n).shape[0], s.cumulative(n)


def rows(levels):
    return {tuple(alpha) for alpha in levels.tolist()}


class TestSpaceDimensions:
    def test_paper_scale_totals(self):
        assert MultiIndexSet.build(2, 39).cumulative(39) == 820
        assert MultiIndexSet.build(3, 15).cumulative(15) == 816

    def test_two_dim_increments_always_one(self):
        s = MultiIndexSet.build(2, 49)
        for n in range(1, 50):
            assert s.level(n).shape[0] - s.level(n - 1).shape[0] == 1

    def test_univariate(self):
        assert sizes(1, 7) == (1, 8)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_telescoping_identity(self, d):
        s = MultiIndexSet.build(d, 11)
        for n in range(0, 12):
            total = sum(s.level(j).shape[0] for j in range(n + 1))
            assert total == s.cumulative(n)

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (5, 3)])
    def test_against_binomials(self, d, n):
        r, total = sizes(d, n)
        assert r == math.comb(n + d - 1, n)
        assert total == math.comb(n + d, n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MultiIndexSet.build(0, 3)
        with pytest.raises(ValueError):
            MultiIndexSet.build(2, -1)


class TestMultiIndexSet:
    def test_low_degree_ordering_by_hand(self):
        s = MultiIndexSet.build(2, 2)
        assert s.level(0).tolist() == [[0, 0]]
        assert s.level(1).tolist() == [[1, 0], [0, 1]]
        assert s.level(2).tolist() == [[2, 0], [1, 1], [0, 2]]

    def test_three_dim_degree_zero(self):
        s = MultiIndexSet.build(3, 0)
        assert s.level(0).tolist() == [[0, 0, 0]]

    def test_level_sizes(self):
        s = MultiIndexSet.build(2, 6)
        assert s.level(2).shape[0] == 3
        for n in range(7):
            assert s.level(n).shape[0] == math.comb(n + 1, n)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_successor_injective_per_coordinate(self, d):
        # alpha -> alpha + e_i maps level n one-to-one into level n + 1.
        s = MultiIndexSet.build(d, 6)
        for n in range(6):
            for i in range(d):
                images = rows(s.level(n) + np.eye(d, dtype=int)[i])
                assert len(images) == s.level(n).shape[0]
                assert images <= rows(s.level(n + 1))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_growth_surjective(self, d):
        s = MultiIndexSet.build(d, 6)
        for n in range(6):
            reached = set()
            for i in range(d):
                reached |= rows(s.level(n) + np.eye(d, dtype=int)[i])
            assert reached == rows(s.level(n + 1))

    def test_graded_lex_is_descending_on_tuples(self):
        s = MultiIndexSet.build(3, 5)
        for n in range(6):
            ordered = [tuple(r) for r in s.level(n)]
            assert ordered == sorted(ordered, reverse=True)
