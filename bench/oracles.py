"""Answer checks that share no code with the engine's computing paths.

Everything here reads only the scenario's shape (vertex ids, the Q-dimension
of each vertex algebra and of each bimodule) and the Q-dimensions of an
object's components.  No matrix, basis or elimination from `isocat` is used,
so a wrong `psi`, a wrong kernel or a wrong split cannot also fool the check.
"""

from __future__ import annotations


def vertex_dims(s) -> dict[str, int]:
    """[D_v : Q] for every vertex of the scenario."""
    return {v: h.dim for v, h in list(s.x_vertices) + list(s.y_vertices)}


def dim_vector(z) -> tuple[int, ...]:
    """Multiplicities over the vertex algebras, from component Q-dimensions."""
    s = z.scenario
    f = vertex_dims(s)
    parts = {**z.x, **z.y}
    return tuple(parts[v].dim // f[v] for v in s.vertex_order())


def ringel_form(s, a, b) -> int:
    """<a, b> = sum_v [D_v:Q] a_v b_v - sum_(x,y) dim_Q(M_xy) a_y b_x."""
    f = vertex_dims(s)
    ia = dict(zip(s.vertex_order(), a))
    ib = dict(zip(s.vertex_order(), b))
    total = sum(f[v] * ia[v] * ib[v] for v in f)
    total -= sum(bm.dim * ia[y] * ib[x] for (x, y), bm in s.bimodules.items())
    return total


def positive_roots(s) -> set[tuple[int, ...]]:
    """Positive roots by reflection closure under the symmetrised Ringel form.

    Only meaningful in finite type, where the closure is finite; the loop
    is capped so that an infinite-type scenario cannot hang the benchmark.
    """
    order = s.vertex_order()
    n = len(order)
    f = [vertex_dims(s)[v] for v in order]
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def sym(a, b):
        return ringel_form(s, a, b) + ringel_form(s, b, a)

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                # s_i(r) = r - 2 (r, e_i) / (e_i, e_i) e_i, with (e_i, e_i) = 2 f_i
                c, rem = divmod(sym(r, simple[i]), f[i])
                if rem:
                    raise ValueError(f"scenario {s.name!r} has a non-integral Cartan entry")
                if c == 0:
                    continue
                refl = tuple(x - c if j == i else x for j, x in enumerate(r))
                if all(x >= 0 for x in refl) and any(refl) and refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        if len(roots) > 1000:
            raise ValueError(f"scenario {s.name!r} has no finite root system")
        frontier = nxt
    return roots


def check_hom_ext(s, a, b, h: int, e: int) -> str | None:
    """dim Hom - dim Ext^1 must equal the Ringel form of the dimension vectors."""
    want = ringel_form(s, dim_vector(a), dim_vector(b))
    if h - e != want:
        return f"hom {h} - ext1 {e} != Ringel form {want}"
    return None


def check_decomposition(vector, summand_vectors, roots=None, expected=None) -> str | None:
    """Summand vectors add up to `vector`; each is in `roots` when given, and
    their multiset equals `expected` when given."""
    total = [0] * len(vector)
    for vec in summand_vectors:
        total = [t + x for t, x in zip(total, vec)]
    if tuple(total) != tuple(vector):
        return f"summand vectors {summand_vectors} do not add up to {list(vector)}"
    if roots is not None:
        bad = [v for v in summand_vectors if tuple(v) not in roots]
        if bad:
            return f"summands {bad} are not positive roots"
    if expected is not None and sorted(map(tuple, summand_vectors)) != sorted(expected):
        return f"summands {sorted(summand_vectors)} != picked roots {sorted(expected)}"
    return None
