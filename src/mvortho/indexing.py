"""Graded multi-index bookkeeping for total-degree polynomial spaces.

Multi-indices of a fixed degree are kept in degree-graded lexicographic
order, descending on the first exponent (so for d=2, degree 1 lists
(1,0) before (0,1)).  Rows and coordinates are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _exact_degree_indices(d: int, n: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(n,)]
    out = []
    for head in range(n, -1, -1):
        for tail in _exact_degree_indices(d - 1, n - head):
            out.append((head,) + tail)
    return out


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices of degree <= max_degree in d variables.

    ``levels[n]`` is an (r_n, d) integer array listing the degree-n
    indices in graded-lex order, r_n = C(n+d-1, n).
    """

    d: int
    max_degree: int
    levels: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, d: int, max_degree: int) -> "MultiIndexSet":
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        levels = []
        for n in range(max_degree + 1):
            rows = _exact_degree_indices(d, n)
            levels.append(np.array(rows, dtype=np.int64).reshape(len(rows), d))
        return cls(d=d, max_degree=max_degree, levels=tuple(levels))

    def level(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside stored range 0..{self.max_degree}")
        return self.levels[n]

    def cumulative(self, n: int) -> int:
        """Number of indices of degree <= n, C(n+d, n)."""
        return math.comb(n + self.d, n)
