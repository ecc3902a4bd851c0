"""Tests for the triple category: hom/ext, universal extensions, resolutions,
abelian structure and decomposition."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import isocat.exactalg as exactalg
import isocat.extcat as extcat
from isocat.catalog import CATALOG_IDS, FINITE_TYPE_IDS, catalog_scenario
from isocat.exactalg import (
    AlgebraSpec,
    Polynomial,
    RatMatrix,
    _combine,
    _combine_terms,
    _echelon,
    _nonzero_entries,
    _null_rows,
    _sparse_rows,
    algebra_center,
    commutant_basis,
)
from isocat.extcat import (
    TripleError,
    TripleMorphism,
    TripleObject,
    VertexSpace,
    _build_fspaces,
    _f_map,
    _hom_terms,
    _psi_data,
    abelian_ops,
    canonical_object,
    canonical_space,
    decompose,
    direct_sum,
    end_algebra,
    equivariant_hom_basis,
    ext1,
    euler_form,
    hom,
    hom_ext_dims,
    hom_space_dims,
    identity_morphism,
    is_projective,
    is_universal,
    projective_resolution,
    simple_x_object,
    simple_y_object,
    torsion_pair,
    universal_extension_of,
    validate,
    verify_short_exact,
    x_only,
    y_only,
    zero_morphism,
)
from isocat.samples import random_morphism, random_object, random_object_with, random_scenario
from isocat.species import (
    Bimodule,
    SpeciesScenario,
    asserted_division_algebra,
    number_field,
    rationals,
    ring_center,
    scalar_bimodule,
    tensor_bimodule,
)

from test_exactalg import from_cols, multiply
from test_species import quaternions_from_i

F = Fraction


def end_y_algebra(z):
    """End of the y part alone, as an algebra plus its matrix basis: a reference built from the v bases."""
    s = z.scenario
    basis = []
    for y in s.y_ids:
        for m in equivariant_hom_basis(s.algebra(y).spec, z.y[y], z.y[y]):
            basis.append({w: m if w == y else RatMatrix.zeros(z.y[w].dim, z.y[w].dim) for w in s.y_ids})
    unit = exactalg._flat_matrices([RatMatrix.identity(z.y[y].dim) for y in s.y_ids])
    products = [exactalg._flat_matrices([a[y] * b[y] for y in s.y_ids]) for a in basis for b in basis]
    flats = [exactalg._flat_matrices([e[y] for y in s.y_ids]) for e in basis]
    alg = exactalg.structure_constants(exactalg._flat_columns(flats, len(unit[0])), [*products, unit])
    assert alg is not None, "End of the y part is not closed or misses the identity"
    return alg, basis


def pair_scenario(mdim=2):
    q = rationals()
    return SpeciesScenario("pair", [("u", q)], [("a1", q)],
                           {("u", "a1"): scalar_bimodule(q, q, mdim)})


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_zero_object():
    z = canonical_object(catalog_scenario("d4_elliptic"), {})
    assert validate(z) is None


def test_validate_reports_bad_action():
    d4 = catalog_scenario("d4_elliptic")
    z = canonical_object(d4, {"u": 1, "a1": 1})
    bad_action = [RatMatrix.from_rows([[2]])]  # not unital
    from isocat.extcat import VertexSpace
    with pytest.raises(Exception) as err:
        TripleObject(d4, {**z.x, "u": VertexSpace(1, bad_action)}, z.y, z.eta)
    assert "u" in str(err.value)


def test_validate_eta_equivariance_violation_names_vertex():
    # over a quadratic x algebra, eta must commute with the regular action;
    # diag(1, 2) is not a right multiplication, so it is rejected by name
    b2 = catalog_scenario("b2_dual")
    z = canonical_object(b2, {"u": 1, "a1": 1})
    bad_eta = {"u": RatMatrix.from_rows([[1, 0], [0, 2]])}
    with pytest.raises(Exception) as err:
        TripleObject(b2, z.x, z.y, bad_eta)
    assert "u" in str(err.value)


def test_validate_highest_root_object():
    from isocat.reptype import highest_root_d4
    z = highest_root_d4(catalog_scenario("d4_elliptic"))
    assert validate(z) is None


def test_objects_built_with_their_tensor_spaces_keep_the_eta_shape_check():
    # random_object_with, universal_extension and y_only hand their built F
    # spaces to the object; the spaces must be the ones TripleObject builds
    s = catalog_scenario("b2_dual")
    z = random_object_with(s, {"u": 1, "a1": 2}, random.Random(4))
    for obj in (z, universal_extension_of(z), y_only(z)):
        again = TripleObject(s, obj.x, obj.y, obj.eta)
        assert [obj.f[x].space.key() for x in s.x_ids] == [again.f[x].space.key() for x in s.x_ids]
    with pytest.raises(TripleError, match="has shape"):
        TripleObject._with_fspaces(s, z.x, z.y, {"u": RatMatrix.zeros(2, 3)}, z.f)


# ----------------------------------------------------------------------
# hom
# ----------------------------------------------------------------------

def test_hom_contains_identity():
    s = catalog_scenario("c3_surface")
    rng = random.Random(3)
    z = random_object(s, rng)
    while z.total_dim() == 0:
        z = random_object(s, rng)
    basis = hom(z, z)
    assert len(basis) >= 1
    flat_len = len(identity_morphism(z).flatten())
    stacked = from_cols([m.flatten() for m in basis], rows=flat_len)
    assert stacked.solve(RatMatrix.from_rows([[e] for e in identity_morphism(z).flatten()])) is not None


def test_hom_vanishes_across_pair_both_ways():
    for name in ("d4_elliptic", "c2", "b2_dual"):
        s = catalog_scenario(name)
        rng = random.Random(11)
        z = random_object(s, rng)
        assert hom(x_only(z), y_only(z)) == []
        assert hom(y_only(z), x_only(z)) == []


def test_hom_morphisms_satisfy_the_square():
    s = catalog_scenario("g2_threefold")
    rng = random.Random(5)
    for _ in range(5):
        a = random_object(s, rng)
        b = random_object(s, rng)
        for m in hom(a, b):
            assert m.check() is None


# ----------------------------------------------------------------------
# ext1 and the Euler form
# ----------------------------------------------------------------------

def test_ext_vanishes_off_x_objects():
    s = catalog_scenario("c3_surface")
    rng = random.Random(7)
    z = random_object(s, rng)
    assert ext1(x_only(z), random_object(s, rng)).dim == 0


def test_ext_vanishes_into_y_objects():
    s = catalog_scenario("c3_surface")
    rng = random.Random(9)
    z = random_object(s, rng)
    assert ext1(random_object(s, rng), y_only(z)).dim == 0


def brute_force_ext_dim_q_scenario(s, z, z2):
    """Independent oracle for Q-only scenarios, straight from definitions.

    The coefficient space is the full matrix space Hom(F(Y), X'), built with
    plain Kronecker dimensions; the image of psi is enumerated over the
    standard bases of Hom(X, X') and Hom(Y, Y') without any of the
    equivariant machinery (every algebra here is Q).
    """
    x, y = s.x_ids[0], s.y_ids[0]
    m = s.bimodules[(x, y)].dim
    dim_x, dim_x2 = z.x[x].dim, z2.x[x].dim
    dim_y, dim_y2 = z.y[y].dim, z2.y[y].dim
    dim_f = m * dim_y
    dim_f2 = m * dim_y2
    eta = z.eta[x].to_fractions()
    eta2 = z2.eta[x].to_fractions()
    rows = []
    for k in range(dim_x2):
        for l in range(dim_x):
            w = [[F(0)] * dim_f for _ in range(dim_x2)]
            for c in range(dim_f):
                w[k][c] = eta[l][c]
            rows.append([e for r in w for e in r])
    for k in range(dim_y2):
        for l in range(dim_y):
            fv = [[F(0)] * dim_f for _ in range(dim_f2)]
            for i in range(m):
                fv[i * dim_y2 + k][i * dim_y + l] = F(1)
            w = [[sum(eta2[r][t] * fv[t][c] for t in range(dim_f2)) for c in range(dim_f)]
                 for r in range(dim_x2)]
            rows.append([e for r in w for e in r])
    total = dim_x2 * dim_f
    if not rows:
        return total
    rank = RatMatrix.from_rows(rows).rank() if rows else 0
    return total - rank


def test_ext_dim_two_with_brute_force_oracle():
    s = pair_scenario(mdim=2)
    z = simple_y_object(s, "a1")
    z2 = simple_x_object(s, "u")
    expected = brute_force_ext_dim_q_scenario(s, z, z2)
    assert expected == 2  # frozen from the oracle
    assert ext1(z, z2).dim == expected
    assert euler_form(z, z2) == -2


def test_ext_brute_force_oracle_on_random_q_objects():
    s = pair_scenario(mdim=2)
    rng = random.Random(21)
    for _ in range(25):
        a = random_object(s, rng)
        b = random_object(s, rng)
        assert ext1(a, b).dim == brute_force_ext_dim_q_scenario(s, a, b)


def test_extension_splits_iff_class_zero():
    # middle objects W(gamma) = (Q, Q, gamma) over the Q^2 bimodule scenario:
    # the canonical sequence 0 -> (Q,0,0) -> W -> (0,Q,0) -> 0 splits exactly
    # for gamma = 0
    s = pair_scenario(mdim=2)
    for gamma in ([0, 0], [1, 0], [0, 1], [2, -3]):
        w = canonical_object(s, {"u": 1, "a1": 1},
                             eta={"u": RatMatrix.from_rows([gamma])})
        inc, proj = torsion_pair(w)
        assert verify_short_exact(inc, proj)
        sections = [m for m in hom(proj.target, w)
                    if (proj.compose(m) - identity_morphism(proj.target)).is_zero()]
        if gamma == [0, 0]:
            assert sections
        else:
            assert not sections


def reference_hom_ext_dims(a, b):
    """Slow reference for (dim hom, dim ext1) straight from the definitions.

    Every matrix entry of (u, v) is an unknown; equivariance enters as
    explicit constraint rows and the square constraint reads F(v) = I_r (x) v
    entry by entry.  No equivariant bases, no psi assembly, so
    this path shares nothing with the production implementation beyond the
    kernel routine.
    """
    s = a.scenario
    u_dims = {x: (b.x[x].dim, a.x[x].dim) for x in s.x_ids}
    v_dims = {y: (b.y[y].dim, a.y[y].dim) for y in s.y_ids}
    u_off, v_off = {}, {}
    pos = 0
    for x in s.x_ids:
        u_off[x] = pos
        pos += u_dims[x][0] * u_dims[x][1]
    for y in s.y_ids:
        v_off[y] = pos
        pos += v_dims[y][0] * v_dims[y][1]
    total_unknowns = pos

    def entry_index(off, rows, cols, r, c):
        return off + r * cols + c

    rows = []

    def add_commutation(off, act_src, act_dst, rdim, cdim):
        for m_src, m_dst in zip(act_src, act_dst):
            src = m_src.to_fractions()
            dst = m_dst.to_fractions()
            for r in range(rdim):
                for c in range(cdim):
                    row = [F(0)] * total_unknowns
                    for t in range(rdim):
                        if dst[r][t]:
                            row[entry_index(off, rdim, cdim, t, c)] += dst[r][t]
                    for t in range(cdim):
                        if src[t][c]:
                            row[entry_index(off, rdim, cdim, r, t)] -= src[t][c]
                    if any(row):
                        rows.append(row)

    for x in s.x_ids:
        rdim, cdim = u_dims[x]
        add_commutation(u_off[x], a.x[x].action, b.x[x].action, rdim, cdim)
    for y in s.y_ids:
        rdim, cdim = v_dims[y]
        add_commutation(v_off[y], a.y[y].action, b.y[y].action, rdim, cdim)

    # square: u . eta = eta' . F(v), with F(v) assembled entry by entry
    for x in s.x_ids:
        eta = a.eta[x].to_fractions()
        eta2 = b.eta[x].to_fractions()
        dim_x2 = b.x[x].dim
        fdim_a = a.f[x].dim
        for r in range(dim_x2):
            for c in range(fdim_a):
                row = [F(0)] * total_unknowns
                rdim, cdim = u_dims[x]
                for t in range(cdim):
                    if eta[t][c]:
                        row[entry_index(u_off[x], rdim, cdim, r, t)] += eta[t][c]
                # subtract (eta' . F(v))[r][c]; F(v) is linear in v's entries
                for y in s.y_ids:
                    bm = s.bimodules.get((x, y))
                    if bm is None or y not in a.f[x].offsets:
                        continue
                    rr = bm.rank_over_right
                    da, db = a.y[y].dim, b.y[y].dim
                    src_off = a.f[x].offsets[y]
                    if y not in b.f[x].offsets:
                        continue
                    dst_off = b.f[x].offsets[y]
                    if not (src_off <= c < src_off + rr * da):
                        continue
                    # column (i, cc) of F(v) is column cc of v in slot block i
                    i, cc = divmod(c - src_off, da)
                    vr, vc = v_dims[y]
                    for p in range(vr):
                        e2 = eta2[r][dst_off + i * db + p]
                        if e2:
                            row[entry_index(v_off[y], vr, vc, p, cc)] -= e2
                if any(row):
                    rows.append(row)

    hom_dim = (total_unknowns - RatMatrix.from_rows(rows).rank()) if rows else total_unknowns

    def equivariant_dim(act_src, act_dst, rdim, cdim):
        sub = []
        for m_src, m_dst in zip(act_src, act_dst):
            src = m_src.to_fractions()
            dst = m_dst.to_fractions()
            for r in range(rdim):
                for c in range(cdim):
                    row = [F(0)] * (rdim * cdim)
                    for t in range(rdim):
                        if dst[r][t]:
                            row[t * cdim + c] += dst[r][t]
                    for t in range(cdim):
                        if src[t][c]:
                            row[r * cdim + t] -= src[t][c]
                    if any(row):
                        sub.append(row)
        if rdim * cdim == 0:
            return 0
        return rdim * cdim - (RatMatrix.from_rows(sub).rank() if sub else 0)

    su = sum(equivariant_dim(a.x[x].action, b.x[x].action, *u_dims[x]) for x in s.x_ids)
    sv = sum(equivariant_dim(a.y[y].action, b.y[y].action, *v_dims[y]) for y in s.y_ids)
    sf = sum(equivariant_dim(a.f[x].space.action, b.x[x].action,
                             b.x[x].dim, a.f[x].dim) for x in s.x_ids)
    ext_dim = hom_dim - (su + sv - sf)
    return hom_dim, ext_dim


def test_hom_ext_against_reference_implementation():
    rng = random.Random(2029)
    scenarios = [catalog_scenario(n) for n in ("c2", "b2_dual", "g2_threefold",
                                               "c3_surface", "d4_elliptic")]
    scenarios += [random_scenario(rng) for _ in range(3)]
    for s in scenarios:
        for _ in range(4):
            a = random_object(s, rng, max_mult=1)
            b = random_object(s, rng, max_mult=1)
            ref_hom, ref_ext = reference_hom_ext_dims(a, b)
            assert len(hom(a, b)) == ref_hom
            assert ext1(a, b).dim == ref_ext


def test_euler_simple_x_is_algebra_dimension():
    for name, want in (("d4_elliptic", 1), ("b2_dual", 2)):
        s = catalog_scenario(name)
        z = simple_x_object(s, "u")
        assert euler_form(z, z) == want


def test_euler_on_universal_extension_equals_hom():
    s = catalog_scenario("c3_surface")
    rng = random.Random(13)
    y = random_object(s, rng, max_mult=1)
    ey = universal_extension_of(y)
    z = random_object(s, rng, max_mult=1)
    assert euler_form(ey, z) == len(hom(ey, z))


def test_five_term_identity_sweep():
    rng = random.Random(77)
    for _ in range(3):
        s = random_scenario(rng)
        for _ in range(10):
            euler_form(random_object(s, rng, max_mult=1),
                       random_object(s, rng, max_mult=1))


EULER_SWEEP = ["d4_elliptic", "c3_surface", "g2_threefold", "c2", "b2_dual",
               "a3", "two_surfaces", "product_no_coupling"]


def ringel_form(s, a, b):
    """<a, b> = sum_v [D_v:Q] a_v b_v - sum_(x,y) dim_Q(M_xy) a_y b_x.

    Read off the component dimensions and the scenario's algebra and
    bimodule dimensions only; it shares no code with psi.
    """
    def dims(z):
        parts = {**z.x, **z.y}
        return {v: parts[v].dim // s.algebra(v).dim for v in s.vertex_order()}

    da, db = dims(a), dims(b)
    diag = sum(s.algebra(v).dim * da[v] * db[v] for v in s.vertex_order())
    cross = sum(bm.dim * da[y] * db[x] for (x, y), bm in s.bimodules.items())
    return diag - cross


def test_euler_form_matches_ringel_form():
    gen = random.Random("ringel-scenarios")
    sweep = [catalog_scenario(name) for name in EULER_SWEEP]
    sweep += [random_scenario(gen) for _ in range(4)]
    for k, s in enumerate(sweep):
        rng = random.Random(f"ringel:{k}")
        for _ in range(12):
            a = random_object(s, rng, max_mult=2)
            b = random_object(s, rng, max_mult=2)
            assert euler_form(a, b) == ringel_form(s, a, b), (s.name, a, b)


def psi_matrix(a, b):
    """(psi, offsets) of a pair, psi as one `RatMatrix` built from the sparse columns of `_psi_data`.

    It also checks the column contract: nonzero entries, rows increasing.
    """
    _, _, _, offsets, (nrows, columns) = _psi_data(a, b)
    den = math.lcm(*(d for _, d in columns))
    num = [[0] * len(columns) for _ in range(nrows)]
    for c, (ents, d) in enumerate(columns):
        assert all(e for _, e in ents) and [r for r, _ in ents] == sorted({r for r, _ in ents})
        for r, e in ents:
            num[r][c] = e * (den // d)
    return RatMatrix(nrows, len(columns), num, den), offsets


def test_hom_ext1_euler_agree_and_projection_kills_psi():
    gen = random.Random("one-psi")
    sweep = [catalog_scenario("g2_threefold"), catalog_scenario("b2_dual")]
    sweep += [random_scenario(gen) for _ in range(6)]
    # only vertex algebras of dimension > 1 take the batched solve
    assert sum(any(s.algebra(v).dim > 1 for v in s.vertex_order()) for s in sweep) >= 4
    for k, s in enumerate(sweep):
        rng = random.Random(f"one-psi:{k}")
        for _ in range(6):
            a = random_object(s, rng, max_mult=2)
            b = random_object(s, rng, max_mult=2)
            su, sv, sf = hom_space_dims(a, b)
            homs = hom(a, b)
            res = ext1(a, b)
            assert euler_form(a, b) == len(homs) - res.dim == su + sv - sf
            # Euler is su + sv - sf for any psi; a wrong psi shows in hom
            assert (len(homs), res.dim) == reference_hom_ext_dims(a, b)
            assert all(m.check() is None for m in homs)
            psi, offsets = psi_matrix(a, b)
            fbases = {x: equivariant_hom_basis(s.algebra(x).spec, a.f[x].space, b.x[x]) for x in s.x_ids}
            assert (psi.rows, psi.cols) == (sf, su + sv)
            assert (res.projection * psi).is_zero()
            assert res.projection.rows == res.dim == sf - psi.rank()
            # each representative is one basis vector of Hom(F(Y), X'), and
            # the projection is the identity on those coordinates
            free = []
            for rep in res.basis:
                hits = [offsets[x] + fbases[x].index(m)
                        for x, m in rep.items() if not m.is_zero()]
                assert len(hits) == 1
                free.append(hits[0])
            assert res.projection.submatrix(range(res.dim), free) == RatMatrix.identity(res.dim)


def dense_psi_and_hom(a, b):
    """(psi, hom basis as (u, v) dicts) by dense products and `_combine`.

    Each psi column is the image u_k . eta or -(eta' . F(v_l)) as a full
    matrix product, with F(v_l) = I_r (x) v_l from `_f_map`,
    coordinatised by a solve against the stacked Hom(F(Y), X') basis; each
    kernel vector of psi becomes one matrix per vertex through `_combine`.
    """
    s = a.scenario
    ub = {x: equivariant_hom_basis(s.algebra(x).spec, a.x[x], b.x[x]) for x in s.x_ids}
    vb = {y: equivariant_hom_basis(s.algebra(y).spec, a.y[y], b.y[y]) for y in s.y_ids}
    fb = {x: equivariant_hom_basis(s.algebra(x).spec, a.f[x].space, b.x[x]) for x in s.x_ids}
    images = [{x: uk * a.eta[x]} for x in s.x_ids for uk in ub[x]]
    for y in s.y_ids:
        for vl in vb[y]:
            v = {w: vl if w == y else RatMatrix.zeros(b.y[w].dim, a.y[w].dim) for w in s.y_ids}
            images.append({x: -(b.eta[x] * _f_map(s, v, a.f, b.f, x)) for x in s.x_ids})
    flat = lambda m: [e for row in m.to_fractions() for e in row]  # noqa: E731
    rows = []
    for x in s.x_ids:
        if not fb[x]:
            continue
        stacked = from_cols([flat(m) for m in fb[x]])
        zero = RatMatrix.zeros(b.x[x].dim, a.f[x].dim)
        rhs = from_cols([flat(img.get(x, zero)) for img in images], stacked.rows)
        coords = stacked.solve(rhs)
        assert coords is not None
        rows += coords.to_fractions()
    psi = (RatMatrix.from_rows(rows) if rows and images
           else RatMatrix.zeros(sum(map(len, fb.values())), len(images)))
    ker, _ = _null_rows(psi)
    homs = []
    for vec in ker.num:
        pos, parts = 0, []
        for ids, bases, src, dst in ((s.x_ids, ub, a.x, b.x), (s.y_ids, vb, a.y, b.y)):
            part = {}
            for w in ids:
                nb = len(bases[w])
                part[w] = _combine(bases[w], vec[pos:pos + nb], ker.den, dst[w].dim, src[w].dim)
                pos += nb
            parts.append(part)
        homs.append(tuple(parts))
    return psi, homs


def conjugator(n):
    """2I + (cyclic shift); 2 + (a root of unity) is never zero, so it is invertible."""
    return RatMatrix(n, n, [[2 * (i == j) + (j == (i + 1) % n) for j in range(n)] for i in range(n)])


def conjugated_space(vs):
    """vs conjugated by `conjugator`: not canonical, so its hom spaces are commutant bases."""
    g = conjugator(vs.dim)
    return VertexSpace(vs.dim, [g * m * g.inverse() for m in vs.action])


def conjugated(z, y):
    """z with its y component conjugated by g = `conjugator` and eta carried through F(g^-1).

    (1, g) is then an isomorphism z -> conjugated(z, y).
    """
    s = z.scenario
    yc = {**z.y, y: conjugated_space(z.y[y])}
    v = {w: conjugator(z.y[w].dim).inverse() if w == y else RatMatrix.identity(z.y[w].dim) for w in s.y_ids}
    fc = _build_fspaces(s, yc)
    return TripleObject(s, z.x, yc, {x: z.eta[x] * _f_map(s, v, fc, z.f, x) for x in s.x_ids})


def assert_hom_matches_dense(a, b):
    psi, ref = dense_psi_and_hom(a, b)
    assert psi_matrix(a, b)[0] == psi
    assert [(m.u, m.v) for m in hom(a, b)] == ref


def test_sparse_hom_matches_dense_reference_on_catalog_and_number_fields():
    gen = random.Random("sparse-hom")
    sweep = [catalog_scenario(name) for name in CATALOG_IDS]
    sweep += [random_scenario(gen) for _ in range(4)]
    assert any(s.algebra(v).dim > 1 for s in sweep[len(CATALOG_IDS):] for v in s.vertex_order())
    for k, s in enumerate(sweep):
        rng = random.Random(f"sparse-hom:{k}")
        objs = [random_object(s, rng, max_mult=2) for _ in range(2)]
        objs.append(universal_extension_of(objs[0]))
        big = random_object_with(s, {v: 3 for v in s.vertex_order()}, rng)
        for a in objs:
            for b in objs:
                assert_hom_matches_dense(a, b)
        assert_hom_matches_dense(big, big)
        assert_hom_matches_dense(objs[1], big)


def test_sparse_hom_matches_dense_reference_on_conjugated_spaces():
    # conjugated y spaces are not canonical, and their commutant bases
    # carry denominators above 1, mixed within one basis
    rng = random.Random(3)
    xh, yh = number_field(Polynomial([-2, 0, 1])), number_field(Polynomial([1, 0, 1]))
    fields = SpeciesScenario("fields", [("u", xh)], [("a", yh)], {("u", "a"): tensor_bimodule(xh, yh)})
    dens = set()
    for s, y in ((fields, "a"), (catalog_scenario("g2_threefold"), "a1"), (catalog_scenario("c2"), "a1")):
        for mult in (1, 2):
            z = random_object_with(s, {v: mult for v in s.vertex_order()}, rng)
            zc = conjugated(z, y)
            w = random_object(s, rng, max_mult=2)
            for a, b in ((z, zc), (zc, z), (zc, zc), (zc, w), (w, zc)):
                dens.update(m.den for m in equivariant_hom_basis(s.algebra(y).spec, a.y[y], b.y[y]))
                assert_hom_matches_dense(a, b)
    assert max(dens) > 1 and 1 in dens


def test_canonical_spaces_and_their_f_spaces_match_the_generic_path():
    # Q(sqrt 2) in the basis (2 + sqrt 2, 1): basis element 0 is not the unit
    odd = asserted_division_algebra(AlgebraSpec([[[4, -2], [1, 0]], [[1, 0], [0, 1]]], [0, 1]))
    sq, q = number_field(Polynomial([-2, 0, 1])), rationals()
    sweep = [catalog_scenario(name) for name in CATALOG_IDS]
    sweep.append(SpeciesScenario("odd_basis", [("u", q), ("w", sq)], [("a", odd), ("b", sq)],
                                 {("u", "a"): tensor_bimodule(q, odd), ("w", "a"): tensor_bimodule(sq, odd),
                                  ("w", "b"): tensor_bimodule(sq, sq, copies=2)}))

    def untagged(space):
        return VertexSpace(space.dim, space.action)

    for s in sweep:
        for m in range(4):
            for v in s.vertex_order():
                h = s.algebra(v)
                space = canonical_space(h, m)
                assert space.action == [RatMatrix.identity(m).kron(lm) for lm in h.spec.left_mats]
            for mults in ([m] * len(s.y_ids), [(m + k) % 4 for k in range(len(s.y_ids))]):
                y_parts = {y: canonical_space(s.algebra(y), n) for y, n in zip(s.y_ids, mults)}
                closed = _build_fspaces(s, y_parts)
                generic = _build_fspaces(s, {y: untagged(vs) for y, vs in y_parts.items()})
                for x in s.x_ids:
                    assert closed[x].space.action == generic[x].space.action


# ----------------------------------------------------------------------
# shared canonical values
# ----------------------------------------------------------------------

def fresh_canonical(h, m):
    """An unshared canonical space, built from Kronecker products."""
    return VertexSpace(m * h.dim, [RatMatrix.identity(m).kron(lm) for lm in h.spec.left_mats],
                       canonical=(h.key(), m))


def random_object_over_fresh_spaces(s, mult, rng, eta_bound=2):
    """`random_object_with` over unshared canonical components and F spaces built afresh."""
    x_parts = {x: fresh_canonical(s.algebra(x), mult.get(x, 0)) for x in s.x_ids}
    y_parts = {y: fresh_canonical(s.algebra(y), mult.get(y, 0)) for y in s.y_ids}
    fsp = extcat._fspaces(s, y_parts)
    eta = {}
    for x in s.x_ids:
        terms, den = _hom_terms(s.algebra(x).spec, fsp[x].space, x_parts[x])
        coeffs = [rng.randrange(-eta_bound, eta_bound + 1) for _ in terms]
        eta[x] = _combine_terms(terms, coeffs, den, x_parts[x].dim, fsp[x].dim)
    z = TripleObject(s, x_parts, y_parts, eta)
    assert all(z.f[x] is not fsp[x] for x in s.x_ids)  # the object built its own F spaces
    return z


@pytest.mark.parametrize("mult", [-1, -3, 1.0, True, "1"])
def test_bad_multiplicities_are_rejected_before_anything_is_memoised(mult):
    s = catalog_scenario("g2_threefold")
    spec = s.algebra("u").spec
    with pytest.raises(TripleError, match="non-negative int"):
        canonical_object(s, {"u": mult})
    with pytest.raises(TripleError, match="non-negative int"):
        canonical_space(s.algebra("u"), mult)
    assert spec._canonical_spaces == {} and s._canonical_fspaces == {}
    assert canonical_object(s, {"u": 1}).dimension_vector() == (1, 0)


def test_objects_with_equal_multiplicities_share_their_spaces():
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        rng = random.Random(name)
        mult = {v: 1 + k % 2 for k, v in enumerate(s.vertex_order())}
        a, b = (random_object_with(s, mult, rng) for _ in range(2))
        assert all(a.x[v] is b.x[v] for v in s.x_ids) and all(a.y[v] is b.y[v] for v in s.y_ids)
        assert all(a.f[x] is b.f[x] for x in s.x_ids)
        c = canonical_object(s, mult)
        assert all(c.x[v] is a.x[v] for v in s.x_ids) and all(c.f[x] is a.f[x] for x in s.x_ids)
        total, _, _ = direct_sum(a, b)
        double = random_object_with(s, {v: 2 * m for v, m in mult.items()}, rng)
        assert all(total.y[y] is double.y[y] for y in s.y_ids)
        assert all(total.f[x] is double.f[x] for x in s.x_ids)
        assert universal_extension_of(a).f is a.f


def test_memoised_spaces_match_fresh_rebuilds_after_the_check_suites():
    # a writer to a shared action matrix or F space would show as a
    # difference from a fresh rebuild; keys are read both cached and afresh
    from isocat import checks
    for name in ("c3_surface", "g2_threefold", "d4_elliptic"):
        s = catalog_scenario(name)
        assert all(r.ok for r in checks.run_all(s, 1, 8))
        specs = {id(s.algebra(v).spec): s.algebra(v) for v in s.vertex_order()}
        seen = 0
        for h in specs.values():
            for m, space in h.spec._canonical_spaces.items():
                fresh = fresh_canonical(h, m)
                assert space.key() == VertexSpace(space.dim, space.action).key() == fresh.key()
                assert space.canonical == fresh.canonical
                seen += 1
        assert s._canonical_fspaces
        for mults, fsp in s._canonical_fspaces.items():
            fresh = extcat._fspaces(s, {y: fresh_canonical(s.algebra(y), m) for y, m in zip(s.y_ids, mults)})
            for x in s.x_ids:
                assert (fsp[x].dim, fsp[x].offsets) == (fresh[x].dim, fresh[x].offsets)
                space = fsp[x].space
                assert space.key() == VertexSpace(space.dim, space.action).key() == fresh[x].space.key()
                seen += 1
        assert seen > 2 * len(specs)


def test_hom_ext1_and_eta_over_shared_spaces_match_fresh_spaces():
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        shared, fresh = [], []
        for k, mult in enumerate(({v: 1 for v in s.vertex_order()},
                                  {v: (k + 2) % 3 for k, v in enumerate(s.vertex_order())})):
            a = random_object_with(s, mult, random.Random(f"{name}:{k}"))
            b = random_object_over_fresh_spaces(s, mult, random.Random(f"{name}:{k}"))
            assert a.eta == b.eta and a.data_key() == b.data_key()
            fy = {y: fresh_canonical(s.algebra(y), mult.get(y, 0)) for y in s.y_ids}
            shared += [a, universal_extension_of(a)]
            fresh += [b, extcat.universal_extension(s, fy)]
        for (a, fa), (b, fb) in itertools.product(zip(shared, fresh), repeat=2):
            assert [(m.u, m.v) for m in hom(a, b)] == [(m.u, m.v) for m in hom(fa, fb)]
            e, fe = ext1(a, b), ext1(fa, fb)
            assert (e.dim, e.basis, e.projection) == (fe.dim, fe.basis, fe.projection)


def test_block_copies_runs_at_most_once_per_algebra_and_multiplicity(monkeypatch):
    from isocat import checks
    calls = []
    real = extcat._block_copies

    def counted(m, cell):
        calls.append((m, id(cell)))
        return real(m, cell)

    monkeypatch.setattr(extcat, "_block_copies", counted)
    s = catalog_scenario("g2_threefold")
    cells = {id(lm) for v in s.vertex_order() for lm in s.algebra(v).spec.left_mats}
    rng = random.Random("block-copies")
    objs = [random_object_with(s, {"u": m % 3, "a1": m % 2}, rng) for m in range(6)]
    objs.append(canonical_object(s, {"u": 2, "a1": 1}))
    for a in objs:
        projective_resolution(a).verify()
        direct_sum(a, universal_extension_of(a))
    assert all(r.ok for r in checks.run_all(s, 2, 4))
    assert calls and len(calls) == len(set(calls)) and {c for _, c in calls} <= cells


def test_deleting_a_scenario_frees_what_its_algebras_memoised():
    import gc
    import weakref
    s = catalog_scenario("g2_threefold")
    objs = [random_object_with(s, {"u": 1, "a1": m}, random.Random(m)) for m in range(3)]
    hom(objs[1], objs[2])
    decompose(direct_sum(objs[1], objs[2])[0])
    assert s.algebra("a1").spec._canonical_spaces and s._canonical_fspaces
    refs = [weakref.ref(o) for o in (s, s.algebra("u"), s.algebra("a1"), s.algebra("a1").spec)]
    del s, objs
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_two_instances_of_a_scenario_share_no_values():
    s1, s2 = catalog_scenario("c3_surface"), catalog_scenario("c3_surface")
    mult = {"u": 1, "a1": 2, "a2": 1}
    a, b = (random_object_with(s, mult, random.Random(5)) for s in (s1, s2))
    assert a.data_key() == b.data_key()
    assert a.f["u"] is not b.f["u"] and a.y["a2"] is not b.y["a2"]
    # q at u and e at a1 are equal algebras but not the same instance: a
    # canonical space of u's algebra at a1 is not a1's own, so its F spaces
    # are built afresh and never memoised
    y_parts = {"a1": canonical_space(s1.algebra("u"), 1), "a2": canonical_space(s1.algebra("a2"), 1)}
    before = dict(s1._canonical_fspaces)
    assert _build_fspaces(s1, y_parts) is not _build_fspaces(s1, y_parts)
    assert s1._canonical_fspaces == before


def shared_spaces(s):
    """(algebra, space) for every shared canonical space and shared F space of s."""
    out = [(s.algebra(v).spec, space) for v in s.vertex_order()
           for space in s.algebra(v).spec._canonical_spaces.values()]
    return out + [(s.algebra(x).spec, fsp.space) for fsps in s._canonical_fspaces.values()
                  for x, fsp in fsps.items()]


def assert_memos_hold_only_shared_pairs(s):
    """Every memo entry pairs shared values of one algebra instance and equals a fresh build."""
    seen = 0
    for alg, src in shared_spaces(s):
        for dst, terms in src._memo.items():
            assert extcat._shared(alg, dst) and (src.canonical is None or extcat._shared(alg, src))
            copies = [VertexSpace(v.dim, v.action, v.canonical) for v in (src, dst)]
            assert extcat._hom_terms(alg, *copies) == terms
            seen += 1
    return seen


def assert_hom_ext_match_references(a, b):
    assert_hom_matches_dense(a, b)
    res = ext1(a, b)
    assert (len(hom(a, b)), res.dim) == reference_hom_ext_dims(a, b)
    assert euler_form(a, b) == len(hom(a, b)) - res.dim


def test_hom_terms_between_shared_values_are_memoised_on_the_source():
    # b2_dual and sqrt2_mult have an x algebra larger than Q, so their
    # (shared F space, shared canonical X') terms are memoised too
    for s in [catalog_scenario(name) for name in ("b2_dual", "c3_surface", "g2_threefold")] + [sqrt2_scenario()]:
        rng = random.Random(f"memo:{s.name}")
        objs = [random_object_with(s, {v: m for v in s.vertex_order()}, rng) for m in (1, 2)]
        objs.append(universal_extension_of(objs[0]))
        for a in objs:
            for b in objs:
                assert_hom_ext_match_references(a, b)
        assert assert_memos_hold_only_shared_pairs(s) > 0
        for x in s.x_ids:
            alg, fsp, xp = s.algebra(x).spec, objs[1].f[x].space, objs[1].x[x]
            if alg.dim == 1:  # Q terms are rebuilt, never kept
                assert xp not in fsp._memo and not xp._memo
                continue
            assert xp in fsp._memo and xp in xp._memo
            # a memoised call reaches neither the closed form nor _HOM_CACHE
            before = len(extcat._HOM_CACHE)
            assert extcat._hom_terms(alg, fsp, xp) is fsp._memo[xp] and len(extcat._HOM_CACHE) == before


def test_fresh_spaces_get_no_memo_entries():
    from isocat.fileio import object_from_json, object_to_json
    for name in ("c3_surface", "g2_threefold", "c2"):
        s = catalog_scenario(name)
        rng = random.Random(f"fresh-memo:{name}")
        shared = [random_object_with(s, {v: 1 + k % 2 for k, v in enumerate(s.vertex_order())}, rng)
                  for _ in range(2)]
        ops = abelian_ops(random_morphism(shared[0], shared[1], rng))
        fresh = [ops.kernel, ops.image, ops.cokernel, conjugated(shared[0], s.y_ids[0]),
                 object_from_json(object_to_json(shared[1]), s)]
        for a in shared + fresh:
            for b in shared + fresh:
                assert_hom_ext_match_references(a, b)
        assert_memos_hold_only_shared_pairs(s)
        ids = {id(vs) for _, vs in shared_spaces(s)}
        for z in fresh:
            parts = [*z.x.values(), *z.y.values(), *(f.space for f in z.f.values())]
            assert all(vs._memo is None for vs in parts if id(vs) not in ids)
        # the file object rebuilt its spaces; conjugation keeps the shared x parts
        assert not ids & {id(vs) for vs in fresh[-1].x.values()}


def test_equal_algebra_instances_do_not_share_memo_entries():
    # u and a1 of c3_surface are both Q, and twin's u and a are both
    # Q(sqrt 2): equal but distinct instances.  A shared space of one
    # placed at the other's vertex is not that vertex's own value
    k1, k2 = (number_field(Polynomial([-2, 0, 1])) for _ in range(2))
    twin = SpeciesScenario("twin", [("u", k1)], [("a", k2)], {("u", "a"): tensor_bimodule(k1, k2)})
    c3 = catalog_scenario("c3_surface")
    for s, (x, y) in ((c3, ("u", "a1")), (twin, ("u", "a"))):
        hx, hy = s.algebra(x), s.algebra(y)
        assert hx.key() == hy.key() and hx.spec is not hy.spec
        rest = {w: canonical_space(s.algebra(w), 1) for w in s.y_ids if w != y}
        objs = []
        for m in (1, 2):
            x_parts, y_parts = {x: canonical_space(hy, m)}, {y: canonical_space(hx, m), **rest}
            fsp = _build_fspaces(s, y_parts)
            objs.append(TripleObject(s, x_parts, y_parts, {x: RatMatrix.zeros(x_parts[x].dim, fsp[x].dim)}))
        objs += [random_object_with(s, {v: m for v in s.vertex_order()}, random.Random(m)) for m in (1, 2)]
        for a in objs:
            for b in objs:
                assert_hom_ext_match_references(a, b)
        assert_memos_hold_only_shared_pairs(s)
        for h in (hx, hy):
            for space in h.spec._canonical_spaces.values():
                assert all(h.spec._canonical_spaces.get(k.canonical[1]) is k for k in space._memo)
        memos = [space._memo for h in (hx, hy) for space in h.spec._canonical_spaces.values()]
        assert any(memos) == (hx.dim > 1)  # Q terms are never kept


def test_the_hom_term_memo_dies_with_its_scenario():
    import gc
    import weakref

    class Marker:
        pass

    s = catalog_scenario("b2_dual")
    objs = [random_object_with(s, {"u": m, "a1": 1}, random.Random(m)) for m in (1, 2)]
    for a in objs:
        for b in objs:
            euler_form(a, b)
            ext1(a, b)
    spaces = [vs for _, vs in shared_spaces(s) if vs._memo]
    assert any(vs.canonical is None for vs in spaces) and any(vs.canonical is not None for vs in spaces)
    markers = [Marker() for _ in spaces]
    for vs, mark in zip(spaces, markers):
        vs._memo[mark] = mark
    refs = [weakref.ref(o) for o in (s, s.algebra("u").spec, s.algebra("a1").spec, *markers)]
    del s, objs, a, b, spaces, vs, mark, markers
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_canonical_object_rejects_keys_that_are_not_vertices():
    s = catalog_scenario("g2_threefold")
    with pytest.raises(TripleError, match="'uu' is not a vertex"):
        canonical_object(s, {"uu": 3})
    zero = RatMatrix.zeros(1, 0)
    with pytest.raises(TripleError, match="'a1' is not an x-vertex"):
        canonical_object(s, {"u": 1}, eta={"a1": zero})
    with pytest.raises(TripleError, match="'w' is not an x-vertex"):
        canonical_object(s, {"u": 1}, eta={"u": zero, "w": zero})
    assert canonical_object(s, {"u": 1}, eta={"u": zero}).dimension_vector() == (1, 0)


def test_random_object_with_rejects_keys_that_are_not_vertices():
    s = catalog_scenario("g2_threefold")
    rng = random.Random(1)
    with pytest.raises(TripleError, match="'uu' is not a vertex of 'g2_threefold'"):
        random_object_with(s, {"uu": 3}, rng)
    with pytest.raises(TripleError, match="'b' is not a vertex"):
        random_object_with(s, {"u": 1, "b": 1, "a1": 2}, rng)
    assert random_object_with(s, {"a1": 2}, rng).dimension_vector() == (0, 2)


def test_shared_canonical_spaces_are_proved_once(monkeypatch):
    calls = []
    real = extcat._space_error

    def counted(alg, vs):
        calls.append(vs)
        return real(alg, vs)

    monkeypatch.setattr(extcat, "_space_error", counted)
    s = catalog_scenario("c3_surface")
    z = random_object_with(s, {"u": 1, "a1": 1, "a2": 1}, random.Random(3))
    for _ in range(3):
        is_universal(z)
        is_universal(universal_extension_of(z))
        canonical_object(s, {"u": 2, "a1": 1})
    shared = {id(vs) for _, vs in shared_spaces(s)}
    assert calls and all(id(vs) in shared for vs in calls)
    assert len(calls) == len({id(vs) for vs in calls})  # each proved once, the first time
    assert all(vs._proved for vs in calls)
    # a fresh space is checked every time, and a shared space at a vertex
    # of another algebra instance is checked there and not marked
    del calls[:]
    fresh = VertexSpace(1, [RatMatrix.identity(1)])
    foreign = canonical_space(s.algebra("a1"), 3)
    for _ in range(2):
        TripleObject(s, {"u": foreign}, {"a1": fresh, "a2": canonical_space(s.algebra("a2"), 0)},
                     {"u": RatMatrix.zeros(3, 1)})
    assert sum(vs is fresh for vs in calls) == 2
    assert sum(vs is foreign for vs in calls) == 2 and not foreign._proved
    with pytest.raises(TripleError, match="not unital"):
        TripleObject(s, {"u": foreign}, {"a1": VertexSpace(1, [RatMatrix.zeros(1, 1)]),
                                         "a2": canonical_space(s.algebra("a2"), 0)},
                     {"u": RatMatrix.zeros(3, 1)})


def test_five_term_check_sees_a_wrong_column_rank(monkeypatch):
    # euler_form compares two eliminations; corrupting only the one of
    # psi's columns must make it fail
    s = catalog_scenario("g2_threefold")
    rng = random.Random("five-term")
    a = random_object_with(s, {"u": 2, "a1": 1}, rng)
    b = random_object_with(s, {"u": 1, "a1": 2}, rng)
    _, _, _, _, (nrows, columns) = _psi_data(a, b)
    col_rows = [dict(ents) for ents, _ in columns]
    assert nrows != len(columns) and any(col_rows)
    expected = euler_form(a, b)
    real = extcat._echelon
    sides = []

    def corrupt_columns(rows):
        is_col = rows == col_rows
        sides.append(is_col)
        pivots, *rest = real(rows)
        return (pivots[:-1] if is_col else pivots, *rest)

    monkeypatch.setattr(extcat, "_echelon", corrupt_columns)
    with pytest.raises(extcat.InternalConsistencyError, match="five-term sequence violated"):
        euler_form(a, b)
    assert sorted(sides) == [False, True]
    monkeypatch.setattr(extcat, "_echelon", real)
    assert euler_form(a, b) == expected


def matrix_hom_basis(alg, src, dst):
    """The matrix construction that `_hom_terms` replaced, kept as its reference.

    Elementary matrices over Q, unit(s, t) (x) R_b on a canonical pair in the
    order (s, t, b), else the commutant basis.
    """
    if src.dim == 0 or dst.dim == 0:
        return []
    if alg.dim == 1:
        out = []
        for k in range(dst.dim):
            for l in range(src.dim):
                m = RatMatrix.zeros(dst.dim, src.dim)
                m.num[k][l] = 1
                out.append(m)
        return out
    if src.canonical is None or dst.canonical is None or src.canonical[0] != dst.canonical[0]:
        return commutant_basis(src.action, dst.action)
    basis = []
    ms, md = src.canonical[1], dst.canonical[1]
    for s in range(md):
        for t in range(ms):
            unit = RatMatrix.zeros(md, ms)
            unit.num[s][t] = 1
            basis += [unit.kron(rb) for rb in alg.right_mats]
    return basis


def assert_terms_match_matrices(alg, src, dst):
    mats = matrix_hom_basis(alg, src, dst)
    assert _hom_terms(alg, src, dst) == _nonzero_entries(mats, dst.dim, src.dim)
    assert equivariant_hom_basis(alg, src, dst) == mats


def test_hom_terms_are_the_sparse_form_of_the_matrix_construction():
    # Q(sqrt 2) in the basis (2 + sqrt 2, 1) and H in the basis (i, j, k, 1):
    # e_0 is not the unit, and H is not commutative
    quat = quaternions_from_i()
    odd = [asserted_division_algebra(AlgebraSpec([[[4, -2], [1, 0]], [[1, 0], [0, 1]]], [0, 1])),
           quat]
    handles = {}
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        handles.update((s.algebra(v).key(), s.algebra(v)) for v in s.vertex_order())
    for h in [*handles.values(), *odd]:
        alg = h.spec
        for ms in range(4):
            for md in range(4):
                src, dst = canonical_space(h, ms), canonical_space(h, md)
                assert_terms_match_matrices(alg, src, dst)
                if 0 < ms < 3 and md < 3:  # a conjugated source takes the commutant basis
                    assert_terms_match_matrices(alg, conjugated_space(src), dst)
                    assert_terms_match_matrices(alg, dst, conjugated_space(src))
    # F spaces are never canonical: Hom(F(Y), X') and Hom(X, F(Y')) are commutant bases
    rng = random.Random("hom-terms")
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        objs = [random_object_with(s, {v: m for v in s.vertex_order()}, rng) for m in (1, 2)]
        for a in objs:
            for b in objs:
                for x in s.x_ids:
                    alg = s.algebra(x).spec
                    assert_terms_match_matrices(alg, a.f[x].space, b.x[x])
                    assert_terms_match_matrices(alg, a.x[x], b.f[x].space)


def test_psi_over_quaternions_with_a_non_unit_e0_matches_dense_reference():
    # over H in the basis (i, j, k, 1), e_0 is not the unit and the right
    # multiplications R_b do not commute with one another; the v images in
    # psi are I_r (x) v_l with v_l built from them
    q, quat = rationals(), quaternions_from_i()
    s = SpeciesScenario("quat", [("u", q)], [("a", quat)], {("u", "a"): tensor_bimodule(q, quat)})
    objs = [random_object_with(s, {"u": 2, "a": m}, random.Random(m)) for m in (1, 2)]
    for a in objs:
        for b in objs:
            assert_hom_matches_dense(a, b)


def test_psi_reads_bases_as_terms_without_building_matrices(monkeypatch):
    # closed-form bases are written as terms, and a commutant basis is read
    # into terms once, when it is cached: hom, ext1 and euler_form on
    # canonical objects build no basis matrix
    reads = []
    real = extcat._nonzero_entries

    def counted(*args):
        reads.append(1)
        return real(*args)

    def no_matrices(*args):
        raise AssertionError("a basis was built as matrices")

    monkeypatch.setattr(extcat, "_HOM_CACHE", {})
    monkeypatch.setattr(extcat, "_nonzero_entries", counted)
    monkeypatch.setattr(extcat, "equivariant_hom_basis", no_matrices)
    gen = random.Random("terms-only")
    sweep = [catalog_scenario(name) for name in ("b2_dual", "g2_threefold", "c3_surface", "two_surfaces")]
    sweep += [random_scenario(gen) for _ in range(4)]
    pairs = 0
    for s in sweep:
        rng = random.Random(s.name)
        objs = [random_object(s, rng, max_mult=2) for _ in range(3)]
        for a in objs:
            for b in objs:
                hom(a, b)
                ext1(a, b)
                euler_form(a, b)
                pairs += 1
    assert pairs == 72 and len(reads) == len(extcat._HOM_CACHE) > 0


def test_hom_ext_dims_skip_no_elimination_they_need():
    # rank is 0 without an elimination on a 0-row or 0-column psi, and psi^T
    # is not eliminated then; the answers are those of the two eliminations
    def eliminated_rank(m):
        return len(_echelon(_sparse_rows(m.num))[0])

    seen = set()
    for name in ("a3", "g2_threefold", "b2_dual"):
        s = catalog_scenario(name)
        rng = random.Random(name)
        full = {v: 1 for v in s.vertex_order()}
        objs = [canonical_object(s, {}), simple_x_object(s, s.x_ids[0]), simple_y_object(s, s.y_ids[0]),
                canonical_object(s, full), random_object_with(s, full, rng), random_object(s, rng)]
        objs += [x_only(objs[4]), y_only(objs[4])]
        for a in objs:
            for b in objs:
                psi = psi_matrix(a, b)[0]
                h, e, _ = hom_ext_dims(a, b)
                assert h == psi.cols - eliminated_rank(psi)
                assert e == psi.rows - eliminated_rank(psi.transpose())
                seen.add("empty" if not (psi.rows and psi.cols) else "zero" if psi.is_zero() else "nonzero")
    assert seen == {"empty", "zero", "nonzero"}


def test_hom_and_ext1_bases_do_not_depend_on_call_history(monkeypatch):
    # F(Q^1) on b2_dual has the action of the canonical x space, so the two
    # pairs (canonical, canonical) and (F space, canonical) share their
    # action keys while one takes the closed form and the other the commutant
    s = catalog_scenario("b2_dual")
    z = random_object_with(s, {"u": 1, "a1": 0}, random.Random(7))
    w = simple_y_object(s, "a1")
    assert w.f["u"].space.key() == z.x["u"].key()

    def answers(warm_up):
        monkeypatch.setattr(extcat, "_HOM_CACHE", {})
        warm_up()
        res = ext1(w, z)
        return [(m.u, m.v) for m in hom(z, z)], res.basis, res.projection

    cold = answers(lambda: None)
    assert answers(lambda: ext1(w, z)) == cold
    assert answers(lambda: hom(z, z)) == cold
    monkeypatch.setattr(extcat, "_HOM_CACHE", {})
    assert [(m.u, m.v) for m in hom(z, z)] == cold[0]


def test_psi_with_cached_bases_runs_no_elimination(monkeypatch):
    # over a field larger than Q the Hom(F(Y), X') coordinates are read off
    # the commutant basis, so once the bases are built, psi
    # needs no elimination
    gen = random.Random("psi-read")
    fields = [s for s in (random_scenario(gen) for _ in range(12))
              if any(s.algebra(x).dim > 1 for x in s.x_ids)]
    calls, read = [], 0
    real = exactalg._echelon

    def counted(*args):
        calls.append(1)
        return real(*args)

    for s in [catalog_scenario("b2_dual")] + fields[:2]:
        rng = random.Random(s.name)
        objs = [random_object_with(s, {v: 2 for v in s.vertex_order()}, rng)]
        objs += [random_object(s, rng, max_mult=2), universal_extension_of(objs[0])]
        pairs = [(a, b) for a in objs for b in objs]
        for a, b in pairs:
            _psi_data(a, b)
        monkeypatch.setattr(exactalg, "_echelon", counted)
        for a, b in pairs:
            read += _psi_data(a, b)[4][0] > 0
        monkeypatch.setattr(exactalg, "_echelon", real)
    assert len(fields) >= 2 and read >= 15 and not calls


# ----------------------------------------------------------------------
# universal extensions, projectivity, resolutions
# ----------------------------------------------------------------------

def test_tensor_space_actions_are_representations():
    # the X part of E(Y) is the tensor space itself, so validating E(Y)
    # checks that the induced action is a unital multiplicative rep even
    # over non-rational algebras on both sides
    rng = random.Random(271)
    scenarios = [catalog_scenario("b2_dual"), catalog_scenario("g2_threefold")]
    scenarios += [random_scenario(rng) for _ in range(4)]
    for s in scenarios:
        for _ in range(3):
            z = random_object(s, rng, max_mult=2)
            ey = universal_extension_of(z)
            assert validate(ey) is None


def test_universal_extension_shape():
    s = pair_scenario(mdim=2)
    y = simple_y_object(s, "a1")
    ey = universal_extension_of(y)
    assert ey.x["u"].dim == 2
    assert ey.eta["u"] == RatMatrix.identity(2)


def test_universal_extension_adjunction_dims():
    s = catalog_scenario("g2_threefold")
    rng = random.Random(3)
    for _ in range(5):
        src = random_object(s, rng, max_mult=1)
        tgt = random_object(s, rng, max_mult=1)
        ey = universal_extension_of(src)
        assert len(hom(ey, tgt)) == hom_space_dims(src, tgt)[1]


def test_ext_from_universal_extension_vanishes_on_x():
    s = catalog_scenario("c2")
    y = simple_y_object(s, "a1")
    ey = universal_extension_of(y)
    for x in s.x_ids:
        assert ext1(ey, simple_x_object(s, x)).dim == 0


def test_end_of_universal_extension_matches_end_y():
    for name in ("c2", "g2_threefold", "d4_elliptic"):
        s = catalog_scenario(name)
        rng = random.Random(1)
        y = random_object(s, rng, max_mult=1)
        ey = universal_extension_of(y)
        endy, _ = end_y_algebra(y)
        basis = hom(ey, ey)
        assert len(basis) == endy.dim
        # the y-restriction is injective and multiplicative on the basis
        vdim = sum(y.y[v].dim ** 2 for v in s.y_ids)
        if vdim:
            flats = []
            for mph in basis:
                row = []
                for v in s.y_ids:
                    row.extend(e for rr in mph.v[v].to_fractions() for e in rr)
                flats.append(row)
            assert RatMatrix.from_rows(flats).rank() == len(basis)
        for a in basis[:3]:
            for b in basis[:3]:
                comp = a.compose(b)
                for v in s.y_ids:
                    assert comp.v[v] == a.v[v] * b.v[v]


def test_is_projective_cases():
    s = pair_scenario(mdim=2)
    y = simple_y_object(s, "a1")
    assert is_projective(universal_extension_of(y))
    assert is_projective(simple_x_object(s, "u"))
    assert not is_projective(y)
    assert ext1(y, simple_x_object(s, "u")).dim > 0


def test_resolution_of_y_object_has_fy_in_degree_one():
    s = pair_scenario(mdim=2)
    y = simple_y_object(s, "a1")
    res = projective_resolution(y)
    res.verify()
    assert res.p1.x["u"].dim == 2
    assert res.d0.check() is None and res.d1.check() is None


def test_resolution_verify_composes_once_and_names_each_failure(monkeypatch):
    s = catalog_scenario("a2")
    z = universal_extension_of(simple_y_object(s, "a1"))
    res = projective_resolution(z)
    composed = []
    real = TripleMorphism.compose

    def counted(self, other):
        composed.append(1)
        return real(self, other)

    monkeypatch.setattr(TripleMorphism, "compose", counted)
    res.verify()
    assert len(composed) == 1
    # x - eta w becomes x + eta w, which does not kill d1's image (eta w, w)
    plus = TripleMorphism(res.p0, z, {"u": RatMatrix.identity(1).hstack(z.eta["u"])}, res.d0.v)
    with pytest.raises(extcat.InternalConsistencyError, match="do not compose to zero"):
        extcat.Resolution(z, res.p1, res.p0, res.d1, plus).verify()
    with pytest.raises(extcat.InternalConsistencyError, match="not a short exact sequence"):
        extcat.Resolution(z, res.p1, res.p0, zero_morphism(res.p1, res.p0), res.d0).verify()


def test_resolution_of_x_object_is_trivial():
    s = catalog_scenario("d4_elliptic")
    z = simple_x_object(s, "u")
    res = projective_resolution(z)
    res.verify()
    assert res.p1.total_dim() == 0


def test_resolution_of_projective_splits():
    s = catalog_scenario("c3_surface")
    y = simple_y_object(s, "a2")
    ey = universal_extension_of(y)
    res = projective_resolution(ey)
    res.verify()
    # a retraction of d1 exists: solve for it in hom(p0, p1)
    basis = hom(res.p0, res.p1)
    ident = identity_morphism(res.p1)
    cols = [m.compose(res.d1).flatten() for m in basis]
    stacked = from_cols(cols, rows=len(ident.flatten()))
    target = RatMatrix.from_rows([[e] for e in ident.flatten()])
    assert stacked.solve(target) is not None


def test_ext_agrees_with_derived_functor_route():
    # hom(z, w) and ext1(z, w) must match the kernel and cokernel of
    # precomposition with d1 along the canonical resolution of z
    rng = random.Random(83)
    for name in ("c3_surface", "g2_threefold", "b2_dual"):
        s = catalog_scenario(name)
        for _ in range(4):
            z = random_object(s, rng, max_mult=1)
            w = random_object(s, rng, max_mult=1)
            res = projective_resolution(z)
            hom_p0 = hom(res.p0, w)
            hom_p1 = hom(res.p1, w)
            cols = [f.compose(res.d1).flatten() for f in hom_p0]
            flat_len = len(hom_p1[0].flatten()) if hom_p1 else 0
            if cols and flat_len:
                rank = from_cols(cols, rows=flat_len).rank()
            else:
                rank = 0
            assert len(hom(z, w)) == len(hom_p0) - rank
            assert ext1(z, w).dim == len(hom_p1) - rank


def test_resolution_sweep_random():
    rng = random.Random(31)
    for name in ("d4_elliptic", "g2_threefold"):
        s = catalog_scenario(name)
        for _ in range(8):
            z = random_object(s, rng, max_mult=1)
            res = projective_resolution(z)
            res.verify()
            assert is_projective(res.p0) and is_projective(res.p1)


# ----------------------------------------------------------------------
# abelian operations, torsion pair
# ----------------------------------------------------------------------

def test_abelian_ops_identity_and_zero():
    s = catalog_scenario("c2")
    rng = random.Random(17)
    z = random_object(s, rng)
    ident = identity_morphism(z)
    ops = abelian_ops(ident)
    assert ops.kernel.total_dim() == 0
    assert ops.image.total_dim() == z.total_dim()
    assert ops.cokernel.total_dim() == 0
    ops0 = abelian_ops(zero_morphism(z, z))
    assert ops0.kernel.total_dim() == z.total_dim()
    assert ops0.image.total_dim() == 0


def test_abelian_ops_objects_are_valid():
    rng = random.Random(23)
    s = catalog_scenario("c3_surface")
    for _ in range(6):
        a = random_object(s, rng, max_mult=1)
        b = random_object(s, rng, max_mult=1)
        f = random_morphism(a, b, rng)
        ops = abelian_ops(f)
        for obj in (ops.kernel, ops.image, ops.cokernel):
            assert validate(obj) is None
        for mph in (ops.kernel_inclusion, ops.image_inclusion,
                    ops.image_projection, ops.cokernel_projection):
            assert mph.check() is None
        assert verify_short_exact(ops.kernel_inclusion, ops.image_projection)
        assert verify_short_exact(ops.image_inclusion, ops.cokernel_projection)


def test_conjugated_vertex_space_gives_an_isomorphic_object():
    """hom, ext1 and abelian_ops on z and on zc = `conjugated`(z, y).

    zc carries eta through F(g^-1), so (1, g) is an isomorphism z -> zc and
    every dimension must agree.
    """
    rng = random.Random(3)
    xh, yh = number_field(Polynomial([-2, 0, 1])), number_field(Polynomial([1, 0, 1]))
    fields = SpeciesScenario("fields", [("u", xh)], [("a", yh)], {("u", "a"): tensor_bimodule(xh, yh)})
    for s, y in ((fields, "a"), (catalog_scenario("g2_threefold"), "a1")):
        z = random_object_with(s, {v: 1 for v in s.vertex_order()}, rng)
        zc = conjugated(z, y)
        assert z.y[y].canonical is not None and zc.y[y].canonical is None
        iso = TripleMorphism(z, zc, {x: RatMatrix.identity(z.x[x].dim) for x in s.x_ids},
                             {w: conjugator(z.y[w].dim) if w == y else RatMatrix.identity(z.y[w].dim)
                              for w in s.y_ids})
        assert iso.check() is None
        for a, b in ((zc, z), (z, zc), (zc, zc)):
            assert (len(hom(a, b)), ext1(a, b).dim) == (len(hom(z, z)), ext1(z, z).dim)
        w = random_object(s, rng, max_mult=1)
        for a, b in ((zc, z), (z, zc), (zc, zc), (zc, w), (w, zc)):
            assert_abelian_pieces_are_objects(a, b, rng)


def assert_abelian_pieces_are_objects(a, b, rng):
    """Hom and ext1 of (a, b) match the reference, and a random morphism's pieces are objects."""
    homs = hom(a, b)
    assert all(m.check() is None for m in homs)
    assert (len(homs), ext1(a, b).dim) == reference_hom_ext_dims(a, b)
    ops = abelian_ops(random_morphism(a, b, rng))
    for obj in (ops.kernel, ops.image, ops.cokernel):
        assert validate(obj) is None
    for mph in (ops.kernel_inclusion, ops.image_inclusion,
                ops.image_projection, ops.cokernel_projection):
        assert mph.check() is None
    assert verify_short_exact(ops.kernel_inclusion, ops.image_projection)
    assert verify_short_exact(ops.image_inclusion, ops.cokernel_projection)
    return ops


def sqrt2_scenario():
    """K = Q(sqrt 2) acting by multiplication on both sides of M = K, next to a tensor edge.

    For a = sqrt 2, e_a . m_0 = m_0 . sqrt 2: the left coordinates d are not
    scalars, the one case where the slot order m_i (x) f_c shows in eta.
    """
    k, qi, q = number_field(Polynomial([-2, 0, 1])), number_field(Polynomial([1, 0, 1])), rationals()
    mult = Bimodule(k, k, 2, k.spec.left_mats, k.spec.right_mats)
    return SpeciesScenario("sqrt2_mult", [("u", k), ("w", q)], [("a", k), ("b", qi)],
                           {("u", "a"): mult, ("u", "b"): tensor_bimodule(k, qi),
                            ("w", "a"): tensor_bimodule(q, k)})


def test_left_coordinates_that_are_not_scalars():
    s = sqrt2_scenario()
    bm, unit = s.bimodules[("u", "a")], s.algebra("a").spec.unit
    assert bm.left_coords(1) == [[[0, 1]]] and unit == [1, 0]
    rng = random.Random("sqrt2")
    objs = [random_object_with(s, {v: m for v in s.vertex_order()}, rng) for m in (1, 2)]
    # F(Y)_u sees the conjugation of Y_a, so eta must be carried through F(g^-1)
    assert not objs[0].eta["u"].is_zero()
    with pytest.raises(TripleError, match="not equivariant"):
        TripleObject(s, objs[0].x, conjugated(objs[0], "a").y, objs[0].eta)
    objs += [random_object(s, rng, max_mult=2), universal_extension_of(objs[0])]
    objs += [conjugated(objs[0], "a"), conjugated(objs[1], "b")]
    for a in objs:
        for b in objs:
            assert_hom_matches_dense(a, b)
    for a, b in ((objs[1], objs[4]), (objs[4], objs[1]), (objs[4], objs[5]), (objs[3], objs[4])):
        ops = assert_abelian_pieces_are_objects(a, b, rng)
        pieces = [ops.kernel, ops.image, ops.cokernel]
        for p in pieces:
            for t in (a, b, *pieces):
                assert_hom_matches_dense(p, t)
                assert (len(hom(p, t)), ext1(p, t).dim) == reference_hom_ext_dims(p, t)


def test_ext_result_projection_contract():
    s = catalog_scenario("c3_surface")
    rng = random.Random(61)
    for _ in range(6):
        a = random_object(s, rng, max_mult=1)
        b = random_object(s, rng, max_mult=1)
        res = ext1(a, b)
        total_f = hom_space_dims(a, b)[2]
        assert res.projection.rows == res.dim
        assert res.projection.cols == total_f
        assert len(res.basis) == res.dim
        if res.dim:
            assert res.projection.rank() == res.dim


def test_torsion_cokernel_is_y_part():
    s = catalog_scenario("d4_elliptic")
    rng = random.Random(29)
    z = random_object(s, rng)
    inc, proj = torsion_pair(z)
    ops = abelian_ops(inc)
    assert ops.cokernel.dimension_vector() == y_only(z).dimension_vector()
    assert verify_short_exact(inc, proj)


def test_torsion_pair_degenerate_cases():
    s = catalog_scenario("c2")
    zx = simple_x_object(s, "u")
    inc, proj = torsion_pair(zx)
    assert proj.target.total_dim() == 0
    zy = simple_y_object(s, "a1")
    inc, proj = torsion_pair(zy)
    assert inc.source.total_dim() == 0
    y = simple_y_object(s, "a1")
    ey = universal_extension_of(y)
    inc, _ = torsion_pair(ey)
    assert inc.source.dimension_vector() == x_only(ey).dimension_vector()


# ----------------------------------------------------------------------
# endomorphism algebras, universality, decomposition
# ----------------------------------------------------------------------

def test_end_algebra_of_vertex_simple_is_the_division_algebra():
    s = catalog_scenario("c2")
    z = simple_y_object(s, "a1")  # algebra Q(sqrt 2)
    alg = end_algebra(z)
    assert alg.dim == 2
    from isocat.exactalg import algebra_center
    center, _ = algebra_center(alg)
    assert center.dim == 2


def test_end_algebra_of_doubled_x_simple():
    s = catalog_scenario("c2")
    w = simple_x_object(s, "u")
    total, _, _ = direct_sum(w, w)
    assert end_algebra(total).dim == 4 * end_algebra(w).dim


def test_is_universal_cases():
    s = pair_scenario(mdim=2)
    y = simple_y_object(s, "a1")
    assert is_universal(universal_extension_of(y)).verdict
    assert not is_universal(simple_x_object(s, "u")).verdict
    # eta an isomorphism but not the identity
    ey = universal_extension_of(y)
    twisted = TripleObject(s, ey.x, ey.y,
                           {"u": RatMatrix.from_rows([[2, 1], [1, 1]])})
    assert is_universal(twisted).verdict


def test_is_universal_consistency_sweep():
    rng = random.Random(41)
    for name in ("d4_elliptic", "c2", "b2_dual"):
        s = catalog_scenario(name)
        for _ in range(10):
            is_universal(random_object(s, rng, max_mult=1))  # must not raise


def test_decompose_simple_and_pairs():
    s = catalog_scenario("c3_surface")
    a = simple_x_object(s, "u")
    b = simple_y_object(s, "a2")
    dec = decompose(a)
    assert len(dec.summands) == 1 and dec.flag == "certified"
    total, _, _ = direct_sum(a, b)
    dec = decompose(total)
    assert len(dec.summands) == 2 and dec.flag == "certified"
    got = sorted(sm.object.dimension_vector() for sm in dec.summands)
    assert got == sorted([a.dimension_vector(), b.dimension_vector()])


def test_decompose_idempotent_identities():
    s = catalog_scenario("d4_elliptic")
    rng = random.Random(47)
    z = random_object(s, rng)
    dec = decompose(z)
    acc = None
    for sm in dec.summands:
        e = sm.inclusion.compose(sm.projection)
        assert (e.compose(e) - e).is_zero()
        acc = e if acc is None else acc + e
    if acc is not None:
        assert (acc - identity_morphism(z)).is_zero()
    else:
        assert z.total_dim() == 0


# ----------------------------------------------------------------------
# decompose against the full candidate sweep
# ----------------------------------------------------------------------

def _all_candidates(end_basis):
    """Every basis element, then the pairwise sums, then the pairwise products."""
    n = len(end_basis)
    yield from end_basis
    yield from (end_basis[i] + end_basis[j] for i in range(n) for j in range(i + 1, n))
    yield from (end_basis[i].compose(end_basis[j]) for i in range(n) for j in range(n) if i != j)


def _sweep_idempotent(z, end_basis):
    for raw in _all_candidates(end_basis):
        if raw.is_zero():
            continue
        a = extcat._normalized_candidate(raw)
        split = extcat._coprime_parts(exactalg._int_min_poly_matrix(extcat._total_matrix(a)))
        if split is None:
            continue
        part, rest = split
        t, g = exactalg._int_poly_bezout(part, rest)
        e = extcat._poly_on_morphism(exactalg._int_poly_mul(t, rest), g[0], a)
        if not e.is_zero() and not (e - identity_morphism(z)).is_zero():
            return e
    return None


def reference_decompose(z):
    """decompose with the full candidate sweep at every node, and the End/rad
    field certificate run only on a leaf, after every candidate failed."""
    if z.total_dim() == 0:
        return extcat.Decomposition([], extcat.CERTIFIED)
    end_basis = hom(z, z)
    e = _sweep_idempotent(z, end_basis)
    if e is None:
        flag = extcat.CERTIFIED if extcat._leaf_certified(z, end_basis) else extcat.NO_FURTHER
        return extcat.Decomposition([extcat.Summand(z, identity_morphism(z), identity_morphism(z))], flag)
    summands, flag = [], extcat.CERTIFIED
    for piece, inc, proj in extcat._image_split(z, e):
        sub = reference_decompose(piece)
        if sub.flag != extcat.CERTIFIED:
            flag = extcat.NO_FURTHER
        summands += [extcat.Summand(sm.object, inc.compose(sm.inclusion), sm.projection.compose(proj))
                     for sm in sub.summands]
    return extcat.Decomposition(summands, flag)


def decomposition_key(dec):
    return dec.flag, [(sm.object.data_key(), sm.inclusion.flatten(), sm.projection.flatten())
                      for sm in dec.summands]


def quaternion_simple():
    quat, q = quaternions_from_i(), rationals()
    return simple_x_object(SpeciesScenario("quat", [("u", quat)], [("a", q)],
                                           {("u", "a"): tensor_bimodule(quat, q)}), "u")


def sweep_objects(s, top):
    """One object per multiplicity vector with entries up to top, per eta seed 0 and 1."""
    order = s.vertex_order()
    return [random_object_with(s, dict(zip(order, mult)), random.Random(f"{s.name}:{mult}:{seed}"))
            for mult in itertools.product(range(top + 1), repeat=len(order)) for seed in (0, 1)]


def test_decompose_matches_the_full_candidate_sweep():
    # stopping at a proved-local End changes no answer: the same flag,
    # summands, inclusions and projections as trying every candidate first
    objs = [z for name in FINITE_TYPE_IDS
            for z in sweep_objects(catalog_scenario(name), 2 if name == "d4_elliptic" else 3)]
    assert len(objs) == 546
    objs += sweep_objects(sqrt2_scenario(), 2) + [quaternion_simple()]
    flags = []
    for z in objs:
        want = decomposition_key(reference_decompose(z))
        assert decomposition_key(decompose(z)) == want
        flags.append(want[0])
    # the sweep reaches uncertified leaves, where the sums and products run;
    # the quaternion simple is one of them
    assert flags.count(extcat.NO_FURTHER) >= 9 and flags[-1] == extcat.NO_FURTHER


def test_decompose_stops_searching_at_a_proved_local_end(monkeypatch):
    # End = Q needs no candidate and no End algebra; a certified leaf with
    # dim End = n tries at most its n basis elements before the certificate
    counts = {"_int_min_poly_matrix": 0, "end_algebra": 0}

    def counted(name):
        real = getattr(extcat, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name in counts:
        monkeypatch.setattr(extcat, name, counted(name))
    seen = set()
    for name in ("c2", "c3_surface", "g2_threefold"):
        for z in sweep_objects(catalog_scenario(name), 2):
            n = len(hom(z, z))
            for key in counts:
                counts[key] = 0
            dec = decompose(z)
            if len(dec.summands) != 1 or dec.flag != extcat.CERTIFIED:
                continue
            if n == 1:
                assert counts == {"_int_min_poly_matrix": 0, "end_algebra": 0}
            else:
                assert counts["_int_min_poly_matrix"] <= n and counts["end_algebra"] == 1
            seen.add(n == 1)
    assert seen == {True, False}


def test_decompose_checks_a_one_dimensional_end_is_the_scalars(monkeypatch):
    z = simple_y_object(catalog_scenario("a2"), "a1")
    assert decompose(z).flag == extcat.CERTIFIED
    twice = hom(z, z)[0].scale(2)
    monkeypatch.setattr(extcat, "hom", lambda a, b: [twice])
    assert decompose(z).flag == extcat.CERTIFIED
    monkeypatch.setattr(extcat, "hom", lambda a, b: [zero_morphism(a, b)])
    with pytest.raises(extcat.InternalConsistencyError, match="misses the identity"):
        decompose(z)


def test_direct_sum_eta_square():
    rng = random.Random(53)
    s = catalog_scenario("g2_threefold")
    a = random_object(s, rng, max_mult=1)
    b = random_object(s, rng, max_mult=1)
    total, (ia, ib), (pa, pb) = direct_sum(a, b)
    assert validate(total) is None
    for mph in (ia, ib, pa, pb):
        assert mph.check() is None
    assert (pa.compose(ia) - identity_morphism(a)).is_zero()
    assert pb.compose(ia).is_zero()


# ----------------------------------------------------------------------
# structure constants: one batched solve against the per-pair solves
# ----------------------------------------------------------------------

def per_pair_constants(basis_cols, product, unit):
    """Structure constants by n^2 + 1 separate solves, the construction
    that the batched `structure_constants` replaces."""
    stacked = from_cols(basis_cols, rows=len(unit))
    n = len(basis_cols)

    def coords(vec):
        return stacked.solve(RatMatrix.from_rows([[e] for e in vec])).column(0)

    return [[coords(product(i, j)) for j in range(n)] for i in range(n)], coords(unit)


def assert_constants(alg, basis_cols, product, unit):
    assert alg.dim == len(basis_cols)
    if alg.dim:
        assert (alg.constants, alg.unit) == per_pair_constants(basis_cols, product, unit)


def test_structure_constants_match_per_pair_solves_on_catalog_objects():
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        rng = random.Random(name)
        center = ring_center(s)
        els = [[t for v in s.vertex_order() for t in e[v]] for e in center.elements]
        mult = [[t for v in s.vertex_order()
                 for t in multiply(s.algebra(v).spec, a[v], b[v])]
                for a in center.elements for b in center.elements]
        unit = [t for v in s.vertex_order() for t in s.algebra(v).spec.unit]
        assert_constants(center.algebra, els, lambda i, j: mult[i * len(els) + j], unit)
        for _ in range(2):
            z = random_object(s, rng)
            basis = hom(z, z)
            end = end_algebra(z, basis)
            assert_constants(end, [m.flatten() for m in basis],
                             lambda i, j: basis[i].compose(basis[j]).flatten(),
                             identity_morphism(z).flatten())
            cen, cbasis = algebra_center(end)
            assert_constants(cen, cbasis, lambda i, j: multiply(end, cbasis[i], cbasis[j]), end.unit)
            endy, ybasis = end_y_algebra(z)

            def flat(e):
                return [x for y in s.y_ids for row in e[y].to_fractions() for x in row]

            assert_constants(endy, [flat(e) for e in ybasis],
                             lambda i, j: flat({y: ybasis[i][y] * ybasis[j][y] for y in s.y_ids}),
                             flat({y: RatMatrix.identity(z.y[y].dim) for y in s.y_ids}))
