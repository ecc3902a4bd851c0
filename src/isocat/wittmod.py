"""Finite-length modules over a discrete valuation ring, at desk scale.

A module is a Q-space with a nilpotent operator V; its isomorphism class
is the Jordan partition of V, read off the rank sequence rank(V^k).  The
partition plays the role of the multiset {n_i} in a decomposition into the
indecomposables W_n (one per length n), and hom counts are the classical
nilpotent intertwiner dimensions sum min(n_i, m_j) over the proxy base
field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactalg import RatMatrix, commutant_basis


class WittError(ValueError):
    pass


@dataclass(frozen=True)
class WittPartition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise WittError("partition parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)


@dataclass
class VModule:
    dim: int
    v_op: RatMatrix

    def __post_init__(self):
        if (self.v_op.rows, self.v_op.cols) != (self.dim, self.dim):
            raise WittError("operator shape does not match the dimension")
        if self.dim and _rank_sequence(self.v_op)[-1] != 0:
            raise WittError("operator is not nilpotent")


def _rank_sequence(v: RatMatrix) -> list[int]:
    """[rank(V^0), rank(V^1), ..., rank(V^dim)]."""
    n = v.rows
    seq = [n]
    power = RatMatrix.identity(n)
    for _ in range(n):
        power = power * v
        r = power.rank()
        seq.append(r)
        if r == 0:
            seq.extend([0] * (n - len(seq) + 1))
            break
    return seq


def witt_partition(m: VModule) -> WittPartition:
    """Jordan partition of the nilpotent operator, from its rank sequence.

    The number of blocks of size >= k is rank(V^(k-1)) - rank(V^k), so the
    partition is unique.
    """
    if m.dim == 0:
        return WittPartition(())
    seq = _rank_sequence(m.v_op)
    if seq[-1] != 0:
        raise WittError("operator is not nilpotent")
    at_least = [seq[k - 1] - seq[k] for k in range(1, m.dim + 1)]
    parts = []
    for k in range(1, m.dim + 1):
        count_k = at_least[k - 1] - (at_least[k] if k < m.dim else 0)
        parts.extend([k] * count_k)
    p = WittPartition(tuple(parts))
    if p.size != m.dim:
        raise WittError("rank sequence is inconsistent")  # unreachable
    return p


def realize_partition(p: WittPartition) -> VModule:
    """Block-Jordan realization; a section of witt_partition."""
    n = p.size
    grid = [[0] * n for _ in range(n)]
    offset = 0
    for part in p.parts:
        for i in range(part - 1):
            grid[offset + i][offset + i + 1] = 1
        offset += part
    return VModule(n, RatMatrix.from_rows(grid) if n else RatMatrix.zeros(0, 0))


def hom_dim(p: WittPartition, q: WittPartition) -> int:
    """Dimension of V-equivariant maps between the realizations."""
    return sum(min(a, b) for a in p.parts for b in q.parts)


def intertwiner_basis(m1: VModule, m2: VModule) -> list[RatMatrix]:
    """Basis of {T : T V1 = V2 T}."""
    if m1.dim == 0 or m2.dim == 0:
        return []
    return commutant_basis([m1.v_op], [m2.v_op])


def find_invertible_intertwiner(m1: VModule, m2: VModule, seed: int = 0,
                                attempts: int = 64) -> RatMatrix | None:
    """An invertible T with T V1 = V2 T, if the modules are isomorphic.

    Random small combinations of the intertwiner space; None after the
    attempt budget (equal partitions make success overwhelmingly likely,
    unequal partitions make it impossible).
    """
    if m1.dim != m2.dim:
        return None
    if m1.dim == 0:
        return RatMatrix.zeros(0, 0)
    basis = intertwiner_basis(m1, m2)
    if not basis:
        return None
    rng = random.Random(seed)
    for _ in range(attempts):
        t = RatMatrix.combine(basis, [rng.randrange(-3, 4) for _ in basis], m2.dim, m1.dim)
        if t.rank() == m1.dim:
            return t
    return None

