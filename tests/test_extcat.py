"""Tests for the triple category: hom/ext, universal extensions, resolutions,
abelian structure and decomposition."""

import random
from fractions import Fraction

import pytest

from isocat.catalog import catalog_scenario
from isocat.exactalg import RatMatrix
from isocat.extcat import (
    TripleObject,
    abelian_ops,
    canonical_object,
    decompose,
    direct_sum,
    end_algebra,
    ext1,
    euler_form,
    hom,
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
    zero_object,
)
from isocat.samples import random_morphism, random_object, random_scenario
from isocat.species import SpeciesScenario, rationals, scalar_bimodule

F = Fraction


def pair_scenario(mdim=2):
    q = rationals()
    return SpeciesScenario("pair", [("u", q)], [("a1", q)],
                           {("u", "a1"): scalar_bimodule(q, q, mdim)})


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_zero_object():
    z = zero_object(catalog_scenario("d4_elliptic"))
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
    stacked = RatMatrix.from_cols([m.flatten() for m in basis], rows=flat_len)
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
    explicit constraint rows and the square constraint uses the frame
    formula for F(v) directly.  No equivariant bases, no psi assembly, so
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
                    pa, _ = a.y[y].frame()
                    _, pbinv = b.y[y].frame()
                    pa = pa.to_fractions()
                    pbinv = pbinv.to_fractions()
                    da, db = a.y[y].dim, b.y[y].dim
                    src_off = a.f[x].offsets[y]
                    if y not in b.f[x].offsets:
                        continue
                    dst_off = b.f[x].offsets[y]
                    if not (src_off <= c < src_off + rr * da):
                        continue
                    i = (c - src_off) // da
                    cc = (c - src_off) % da
                    vr, vc = v_dims[y]
                    for p in range(vr):
                        for q in range(vc):
                            coeff = F(0)
                            for t in range(db):
                                e2 = eta2[r][dst_off + i * db + t]
                                if e2 and pbinv[t][p] and pa[q][cc]:
                                    coeff += e2 * pbinv[t][p] * pa[q][cc]
                            if coeff:
                                row[entry_index(v_off[y], vr, vc, p, q)] -= coeff
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


def test_hom_ext1_euler_agree_and_projection_kills_psi():
    from isocat.extcat import _psi_data

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
            _, _, fbases, offsets, psi = _psi_data(a, b)
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
    from isocat.extcat import end_y_algebra
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
    stacked = RatMatrix.from_cols(cols, rows=len(ident.flatten()))
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
                rank = RatMatrix.from_cols(cols, rows=flat_len).rank()
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
    from isocat.extcat import zero_morphism
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
