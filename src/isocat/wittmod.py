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
from dataclasses import dataclass, field

from .exactalg import RatMatrix, _echelon, commutant_basis


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


@dataclass(frozen=True)
class VModule:
    dim: int
    v_op: RatMatrix
    ranks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.v_op.rows, self.v_op.cols) != (self.dim, self.dim):
            raise WittError("operator shape does not match the dimension")
        object.__setattr__(self, "ranks", tuple(_rank_sequence(self.v_op)))
        if self.ranks[-1] != 0:
            raise WittError("operator is not nilpotent")


def _rank_sequence(v: RatMatrix) -> list[int]:
    """[rank(V^0), rank(V^1), ..., rank(V^dim)].

    The row space of V^(k+1) is the row space of V^k times V, so an echelon
    basis of it, as sparse integer rows, is multiplied by V's nonzero entries
    and eliminated again.  That space only shrinks, so once a rank repeats it
    is fixed and the rest of the sequence is that rank.
    """
    n = v.rows
    v_rows = [[(j, x) for j, x in enumerate(r) if x] for r in v.num]
    seq = [n]
    basis = [{i: 1} for i in range(n)]
    while len(seq) <= n:
        rows = []
        for b in basis:
            img: dict[int, int] = {}
            for i, x in b.items():
                for j, y in v_rows[i]:
                    img[j] = img.get(j, 0) + x * y
            rows.append({j: img[j] for j in sorted(img) if img[j]})
        pivots, basis, _, _ = _echelon(rows)
        seq.append(len(pivots))
        if seq[-1] == seq[-2]:
            break
    return seq + [seq[-1]] * (n + 1 - len(seq))


def witt_partition(m: VModule) -> WittPartition:
    """Jordan partition of the nilpotent operator, from its rank sequence.

    The number of blocks of size >= k is rank(V^(k-1)) - rank(V^k), so the
    partition is unique.
    """
    at_least = [m.ranks[k - 1] - m.ranks[k] for k in range(1, m.dim + 1)] + [0]
    p = WittPartition(tuple(k for k in range(1, m.dim + 1) for _ in range(at_least[k - 1] - at_least[k])))
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
    return VModule(n, RatMatrix(n, n, grid))


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

