"""Finite-length modules over a discrete valuation ring, at desk scale.

A module is a Q-space with a nilpotent operator V; its isomorphism class
is the Jordan partition of V, read off the rank sequence rank(V^k).  The
partition plays the role of the multiset {n_i} in a decomposition into the
indecomposables W_n (one per length n), and hom counts are the classical
nilpotent intertwiner dimensions sum min(n_i, m_j) over the proxy base
field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactalg import RatMatrix, _echelon, _kernel, commutant_basis


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
    return commutant_basis([m1.v_op], [m2.v_op])


def _jordan_frame(m: VModule) -> RatMatrix:
    """A basis P of Jordan chains, with V P = P J for J = `realize_partition` of m's partition.

    Chains go longest first, each bottom first.  A top t of a length-k chain,
    from a basis of ker V^k, is kept when its bottom V^(k-1) t is independent
    of the bottoms kept so far; those span ker V cap im V^(k-1), of dimension
    the number of parts >= k.  Chains with independent bottoms are
    independent (V^s of a relation leaves one among the bottoms alone).
    """
    n, parts = m.dim, witt_partition(m).parts
    powers = [RatMatrix.identity(n)]
    for _ in range(parts[0] if parts else 0):
        powers.append(powers[-1] * m.v_op)
    bottoms, chains = RatMatrix.zeros(n, 0), []
    for k in sorted(set(parts), reverse=True):
        tops = _kernel(powers[k])
        ends = bottoms.hstack(powers[k - 1] * tops)
        basis = ends.column_space_pivots()  # the kept bottoms, then the new ones
        for c in basis[bottoms.cols:]:
            top = tops.submatrix(range(n), [c - bottoms.cols])
            chains += [(powers[j] * top).column(0) for j in range(k - 1, -1, -1)]
        bottoms = ends.submatrix(range(n), basis)
    return RatMatrix.from_rows(chains).transpose()


def find_invertible_intertwiner(m1: VModule, m2: VModule) -> RatMatrix | None:
    """An invertible T with T V1 = V2 T; None exactly when the Jordan partitions differ.

    T = P2 P1^-1 for the Jordan frames P_i of `_jordan_frame`: both conjugate
    their operator to the block realization J of the shared partition, so
    T V1 = P2 J P1^-1 = V2 T.
    """
    if witt_partition(m1) != witt_partition(m2):
        return None
    return _jordan_frame(m2) * _jordan_frame(m1).inverse()
