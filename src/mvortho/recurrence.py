"""Container for the matrix coefficients of the vector three-term recurrence

    x_i p_n(x) = B_{n+1,i} p_{n+1}(x) + A_{n+1,i} p_n(x) + B_{n,i}^T p_{n-1}(x)

where p_n stacks an orthonormal basis of the exact-degree-n space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class RecurrenceData:
    """Recurrence matrices through degree ``max_degree``.

    ``A[n][i]`` is the symmetric (r_{n-1}, r_{n-1}) coefficient of p_{n-1}
    and ``B[n][i]`` the (r_{n-1}, r_n) degree-raising coefficient, for
    n = 0..max_degree and coordinates i = 0..d-1 (p_{-1} is the empty block,
    so entry 0 holds empty blocks, ``start``).  ``lam[n]``, when present,
    is the diagonal of the stacked raising Gram sum_i B[n][i]^T B[n][i]
    (``lam[0]`` is None); its presence marks canonical form (diagonal
    ordered non-increasing).
    """

    d: int
    max_degree: int
    A: list
    B: list
    lam: list | None = None

    @classmethod
    def start(cls, d: int) -> "RecurrenceData":
        """Degree-0 data, the empty blocks A[0] and B[0], and no ``lam``."""
        return cls(d=d, max_degree=0, A=[[np.zeros((0, 0))] * d],
                   B=[[np.zeros((0, 1))] * d])

    def r(self, n: int) -> int:
        if n < 0:
            return 0
        return math.comb(n + self.d - 1, n)

    @property
    def is_canonical(self) -> bool:
        return self.lam is not None

    def raising_gram(self, n: int) -> np.ndarray:
        """sum_i B[n][i]^T B[n][i], the (r_n, r_n) stacked raising Gram."""
        out = np.zeros((self.r(n), self.r(n)))
        for mat in self.B[n]:
            out += mat.T @ mat
        return out

    def copy(self) -> "RecurrenceData":
        return RecurrenceData(
            d=self.d,
            max_degree=self.max_degree,
            A=[[np.array(m) for m in row] for row in self.A],
            B=[[np.array(m) for m in row] for row in self.B],
            lam=None if self.lam is None else [None if v is None else np.array(v)
                                               for v in self.lam],
        )

    def validate_shapes(self):
        if len(self.A) != self.max_degree + 1 or len(self.B) != self.max_degree + 1:
            raise ValueError("coefficient tables must have max_degree + 1 rows")
        for n in range(self.max_degree + 1):
            if len(self.A[n]) != self.d or len(self.B[n]) != self.d:
                raise ValueError(f"degree {n}: expected {self.d} coordinate matrices")
            for i in range(self.d):
                if self.A[n][i].shape != (self.r(n - 1), self.r(n - 1)):
                    raise ValueError(f"A[{n}][{i}] has shape {self.A[n][i].shape}")
                if self.B[n][i].shape != (self.r(n - 1), self.r(n)):
                    raise ValueError(f"B[{n}][{i}] has shape {self.B[n][i].shape}")
