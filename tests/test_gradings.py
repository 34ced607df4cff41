from fractions import Fraction

import pytest

from e6grad import composition as co
from e6grad import gradings as gr
from e6grad import jordan as jo
from e6grad import linalg as la
from e6grad.abgroup import FgAbelianGroup, presented_group
from e6grad.scalar import I, Cyc
from e6grad.structalg import AlgebraTable, CheckReport, Subspace, derivations
from oracles import (is_refinement, jordan_z_grading, refine,
                     split_octonion_table)


def unit_vecs(n, idxs):
    return [{i: Fraction(1)} for i in idxs]


def octonion_grading(split=False):
    return gr.GradedDecomposition.from_degree_map(
        split_octonion_table() if split else co.octonion_table(),
        FgAbelianGroup(0, (2, 2, 2)), co.octonion_degrees())


def pauli_grading(m):
    return gr.GradedDecomposition.from_degree_map(
        m.table, FgAbelianGroup(0, (3, 3)), m.meta["degrees"])


def jordan_octonion_grading(j, ncoords=5):  # Z2^5, or Z2^3 with ncoords=3
    return gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2,) * ncoords),
        [d[:ncoords] for d in jo.octonion_z2_degrees(j)])


def test_trivial_grading_passes():
    t = co.octonion_table()
    gd = gr.GradedDecomposition(t, FgAbelianGroup(0, (2,)),
                                [((0,), unit_vecs(8, range(8)))])
    assert gr.check_grading(gd).ok
    assert gr.type_vector(gd) == (0, 0, 0, 0, 0, 0, 0, 1)


def test_corrupted_degree_map_fails():
    t = co.octonion_table()
    degs = co.octonion_degrees()
    bad = list(degs)
    bad[3] = (0, 0, 0)  # e3 = e1 e2 must have degree (1,1,0)
    gd = gr.GradedDecomposition.from_degree_map(t, FgAbelianGroup(0, (2, 2, 2)), bad)
    rep = gr.check_grading(gd)
    assert not rep.ok
    assert rep.witness is not None


def test_incomplete_components_fail():
    t = co.octonion_table()
    gd = gr.GradedDecomposition(t, FgAbelianGroup(0, (2,)),
                                [((0,), unit_vecs(8, range(7)))])
    assert not gr.check_grading(gd).ok


def test_duplicate_degree_rejected():
    t = co.octonion_table()
    with pytest.raises(ValueError):
        gr.GradedDecomposition(t, FgAbelianGroup(0, (2,)),
                               [((0,), unit_vecs(8, [0])),
                                ((2,), unit_vecs(8, [1]))])


def test_a_component_outside_the_table_space_is_rejected():
    # a Subspace component is rebuilt in the table's space, so its ambient
    # dimension is checked like that of a list of vectors
    degs = co.octonion_degrees()
    comps = [(degs[i], unit_vecs(8, [i])) for i in range(7)]
    comps.append((degs[7], Subspace(200, [{150: Fraction(1)}])))
    with pytest.raises(ValueError, match="vector outside the 8-dim space"):
        gr.GradedDecomposition(co.octonion_table(),
                               FgAbelianGroup(0, (2, 2, 2)), comps)


def test_refine_with_trivial_returns_same_components():
    m = jo.build_m()
    gp = pauli_grading(m)
    triv = gr.GradedDecomposition(m.table, FgAbelianGroup(0, (2,)),
                                  [((0,), unit_vecs(9, range(9)))])
    ref = refine(gp, triv)
    assert sorted(s.dim for _, s in ref.components) == \
        sorted(s.dim for _, s in gp.components)
    assert is_refinement(ref, gp) and is_refinement(ref, triv)


def test_refine_z25_on_j():
    j = jo.build_j()
    g3 = jordan_octonion_grading(j, 3)
    # the slot Z2^2 grading: diagonal neutral, iota_i in three classes
    degs = [(0, 0)] * 3
    for i in (1, 2, 3):
        degs += [jo.PEIRCE_DEG[i]] * 8
    g2 = gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2, 2)), degs)
    assert gr.check_grading(g2).ok
    ref = refine(g3, g2)
    assert gr.check_grading(ref).ok
    assert sorted(s.dim for _, s in ref.components) == [1] * 24 + [3]
    g5 = jordan_octonion_grading(j)
    assert sorted(s.dim for _, s in g5.components) == \
        sorted(s.dim for _, s in ref.components)


def test_universal_group_examples():
    m = jo.build_m()
    gp = pauli_grading(m)
    assert gr.universal_group(gp).is_isomorphic_to(FgAbelianGroup(0, (3, 3)))
    o = octonion_grading()
    assert gr.universal_group(o).is_isomorphic_to(FgAbelianGroup(0, (2, 2, 2)))


def test_universal_group_invariant_under_relabeling():
    m = jo.build_m()
    gp = pauli_grading(m)
    # relabel the support by the automorphism (a, b) -> (b, a + b) of Z3^2
    group = FgAbelianGroup(0, (3, 3))
    relabeled = gr.GradedDecomposition(
        m.table, group,
        [(((d[1]) % 3, (d[0] + d[1]) % 3), sub.basis)
         for d, sub in gp.components])
    assert gr.check_grading(relabeled).ok
    assert gr.universal_group(relabeled).is_isomorphic_to(
        gr.universal_group(gp))


def test_root_decomposition_universal_group_is_free(chevalley):
    chev = chevalley.meta["chev"]
    from e6grad import rootsys as rs
    gz = gr.GradedDecomposition.from_degree_map(
        chev.table, FgAbelianGroup(6),
        [(0,) * 6 for _ in range(6)]
        + [r for r in chev.pos]
        + [tuple(-x for x in r) for r in chev.pos])
    assert gr.check_grading(gz).ok
    ug = gr.universal_group(gz)
    assert ug.rank == 6 and not ug.torsion


def test_support_generates(ws):
    g13 = ws.grading("gamma13")
    assert gr.support_generates(g13)
    o = octonion_grading()
    assert gr.support_generates(o)
    # the same support with a fourth coordinate 0 spans only Z2^3 in Z2^4
    padded = gr.GradedDecomposition(
        o.table, FgAbelianGroup(0, (2, 2, 2, 2)),
        [(d + (0,), sub) for d, sub in o.components])
    assert not gr.support_generates(padded)


def _two_line_grading(group, degrees):
    """A zero algebra on b0, b1 with b_i of degree degrees[i]."""
    t = AlgebraTable(2, ["b0", "b1"], [[{}, {}], [{}, {}]])
    return gr.GradedDecomposition(t, group, [(d, unit_vecs(2, [i]))
                                             for i, d in enumerate(degrees)])


def test_support_generates_product_groups_in_both_layouts():
    """The torsion relation sits on the coordinate after the free ones, in
    Z x Z2 and in Z2 x Z written free-first."""
    zt = FgAbelianGroup(1, (2,))  # Z x Z2, also Z2 x Z with its Z first
    # every free coordinate a multiple of 3: no generation
    assert not gr.support_generates(_two_line_grading(zt, [(3, 1), (6, 1)]))
    # (0, 1) = (1, 1) - (1, 0) generates with (1, 0)
    assert gr.support_generates(_two_line_grading(zt, [(1, 1), (1, 0)]))
    assert gr.support_generates(_two_line_grading(zt, [(1, 1), (0, 1)]))
    # the Z2 coordinate is hit only by 2 = 0: no generation
    assert not gr.support_generates(_two_line_grading(zt, [(1, 0), (2, 0)]))
    # the Z2 relation is 2 e_1 = 0, at coordinate rank + 0 = 1: 3 e_0 does
    # not give e_0, as it would with 2 e_0 = 0
    assert not gr.support_generates(_two_line_grading(zt, [(3, 0), (0, 1)]))


def test_product_group_arithmetic_in_both_layouts():
    zt = FgAbelianGroup(1, (2,))
    assert zt.ncoords == 2 and zt.zero() == (0, 0)
    assert zt.reduce((-5, 3)) == (-5, 1)
    assert zt.add((4, 1), (-7, 1)) == (-3, 0)
    assert zt.sub(zt.zero(), (4, 1)) == (-4, 1)
    assert zt.sub((1, 0), (3, 1)) == (-2, 1)
    g = FgAbelianGroup(2, (2, 3))  # Z^2 x Z2 x Z3
    assert g.ncoords == 4
    assert g.add((2, 3, 1, 2), (2, 3, 1, 2)) == (4, 6, 0, 1)
    assert g.sub(g.zero(), (2, -3, 1, 2)) == (-2, 3, 1, 1)
    assert g.has_order_dividing_2((0, 0, 1, 0))
    assert not g.has_order_dividing_2((0, 0, 1, 1))
    assert g.is_isomorphic_to(FgAbelianGroup(2, (6,)))
    with pytest.raises(ValueError):
        zt.reduce((1, 2, 3))


def test_groups_are_equal_only_with_the_same_layout():
    zt = FgAbelianGroup(1, (2,))
    assert zt == FgAbelianGroup(1, (2,))
    assert hash(zt) == hash(FgAbelianGroup(1, (2,)))
    # a different rank or torsion tuple is a different group, also when
    # the two are isomorphic
    assert zt != FgAbelianGroup(2) and zt != FgAbelianGroup(0, (2,))
    assert FgAbelianGroup(0, (2, 3)) != FgAbelianGroup(0, (3, 2))
    assert FgAbelianGroup(0, (2, 3)).is_isomorphic_to(FgAbelianGroup(0, (6,)))
    assert FgAbelianGroup(0, (2, 3)) != FgAbelianGroup(0, (6,))
    assert len({zt, FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (2,))}) == 2
    assert repr(zt) == "FgAbelianGroup(rank=1, torsion=(2,))"


def test_induced_derivation_grading_octonions():
    z23 = FgAbelianGroup(0, (2, 2, 2))
    ders = derivations(co.octonion_table(), co.octonion_degrees(), z23)
    dgd = gr.GradedDecomposition.from_degree_map(ders.table, z23, ders.blocks)
    assert ders.dim == 14
    dims = {d: s.dim for d, s in dgd.components}
    assert (0, 0, 0) not in dims
    assert sorted(dims.values()) == [2] * 7
    assert gr.check_grading(dgd).ok


def test_induced_derivation_grading_trivial():
    z2 = FgAbelianGroup(0, (2,))
    ders = derivations(co.octonion_table(), [(0,)] * 8, z2)
    dgd = gr.GradedDecomposition.from_degree_map(ders.table, z2, ders.blocks)
    assert ders.dim == 14
    assert len(dgd.components) == 1


def test_isotropy_and_orthogonality(ws):
    g3 = ws.grading("gamma3")
    tits = ws.model("tits")
    k = tits.killing()
    assert gr.isotropic_components_check(g3, k).ok
    assert gr.killing_orthogonality_check(g3, k).ok


def test_interval_check_numbers(ws):
    g7 = ws.grading("gamma7")
    iv = gr.interval_check(g7, -14)
    assert iv == {"dim_neutral": 0, "order2_dim": 78, "signature": -14,
                  "ok": True}


def test_presented_group():
    g = presented_group(2, [{0: 2}, {1: 3}])
    assert g.is_isomorphic_to(FgAbelianGroup(0, (6,)))
    g = presented_group(3, [])
    assert g.rank == 3
    g = presented_group(2, [{0: 1, 1: -1}])
    assert g.rank == 1 and not g.torsion
    g = presented_group(3, [{0: 2}, {}], extra_rank=1)
    assert g == FgAbelianGroup(3, (2,))


def test_presented_group_reads_relations_as_rows(ws, monkeypatch):
    """The group from the relation rows equals the one read off the
    invariant factors of their transpose, on gamma3's relations."""
    from e6grad.linalg import smith_normal_form
    seen = []

    def spy(n, relations):
        seen.append((n, relations))
        return presented_group(n, relations)

    monkeypatch.setattr(gr, "presented_group", spy)
    got = gr.universal_group(ws.grading("gamma3"))
    ((n, rels),) = seen
    assert all(rel and all(rel.values()) for rel in rels)
    transpose = [{} for _ in range(n)]
    for r, rel in enumerate(rels):
        for c, x in rel.items():
            transpose[c][r] = x
    factors = smith_normal_form(transpose, len(rels))
    want = FgAbelianGroup(n - sum(1 for x in factors if x),
                          tuple(x for x in factors if x > 1))
    assert got == want == FgAbelianGroup(0, (2, 6, 6))
    assert (len(rels), n) == (2229, 71)


def test_group_descriptions():
    assert FgAbelianGroup(1, (2, 2, 2, 2)).describe() == "Z x Z2^4"
    assert FgAbelianGroup(0, (2, 2, 3)).describe() == "Z2^2 x Z3"
    assert FgAbelianGroup(2).describe() == "Z^2"
    assert FgAbelianGroup(0, (2, 2, 2, 3, 3)).is_isomorphic_to(
        FgAbelianGroup(0, (2, 6, 6)))


def test_named_grading_wrong_model_rejected(ws):
    with pytest.raises(ValueError):
        gr.build_named_grading("gamma3", ws.model("albert"))
    # the twisted variants are models of their own, not their base models
    for name, model in (("gamma7", "albert_plus"), ("gamma3", "tits_split")):
        with pytest.raises(ValueError, match=f"lives on the .* not {model}$"):
            gr.build_named_grading(name, ws.model(model))
    with pytest.raises(ValueError):
        gr.build_named_grading("gamma99", ws.model("tits"))


def test_classical_signatures_and_so8_exclusion():
    assert gr.classical_signature("su", 5, 1) == -15
    assert gr.classical_signature("su", 2, 1) == 0
    assert gr.classical_signature("so", 7, 1) == -14
    assert gr.classical_signature("sp", 2, 2) == -4
    assert gr.classical_signature("sp", 3, 1) == -12
    assert gr.classical_signature("sp", 4, 0) == -36
    rep = gr.so8_exclusion_arithmetic()
    assert rep["ok"]
    assert rep["so8_signatures"] == [-28, -14, -4, 2, 4]


# SHA-256 of json.dumps(grading_to_json(...), sort_keys=True) for each named
# grading, as built by the intersection of gradings that the direct bucket
# split replaced.
GRADING_SHA256 = {
    "gamma3": "0a510c4e002c9e6acf41f9eac7e44415e90539f3758ce5abfbb816c321fdac54",
    "gamma7": "88d2767ca3d3240c42d19f83ce65715ec7f649153f684746e28528bd8bab6165",
    "gamma8": "ef5cdeeaf53fab9bdc653910efe986ff8deac210f066489931a3a2553b0ea017",
    "gamma10": "3d2f7b89aa35e1ecf0e38f1af81aecfbae9b784238dd5391cc938f13f8c4817f",
    "gamma12": "e7bc1cb003f12a781e967d9a6418164409146b6dd8b063105c07297ab7104bac",
    "gamma13": "67db076719c8720aa09e7dc3296dd50413d4d14d5c1e193efce35c293a9cac56",
}


def test_named_gradings_are_pinned(ws):
    import hashlib
    import json
    from e6grad import jsonio
    for name, want in GRADING_SHA256.items():
        doc = json.dumps(jsonio.grading_to_json(ws.grading(name)),
                         sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == want, name


def test_gamma12_buckets_match_the_refinement(ws, flag):
    """gamma12 split from its Z-degree buckets equals the refinement of the
    Z-degree grading by the Z2^5 split of the whole space."""
    from e6grad import liemodels as lm
    from e6grad.linalg import simultaneous_eigensplit
    z = gr.GradedDecomposition.from_degree_map(
        flag.table, FgAbelianGroup(1), [(d,) for d in flag.meta["z_degrees"]])
    ops = lm.flag_f_matrices(flag) + [lm.flag_theta_matrix(flag)]
    spaces = simultaneous_eigensplit(ops, [gr.PM] * 5, flag.dim)
    z25 = gr.GradedDecomposition(
        flag.table, FgAbelianGroup(0, (2,) * 5),
        [(tuple(0 if lam == 1 else 1 for lam in t), vecs)
         for t, vecs in spaces])
    want = refine(z, z25)
    got = ws.grading("gamma12")
    assert (got.group.rank, got.group.torsion) == \
        (want.group.rank, want.group.torsion)
    assert [(d, s.basis) for d, s in got.components] == \
        [(d, s.basis) for d, s in want.components]


def test_scalar_of():
    one = Cyc(1)

    def ident(**cols):
        # the identity, with column c replaced by cols[f"c{c}"]
        return [cols.get(f"c{c}", {c: one}) for c in range(8)]

    assert gr.scalar_of([{i: I} for i in range(8)]) == I
    assert gr.scalar_of([{} for _ in range(8)]) is None
    assert gr.scalar_of([{i: Cyc(0)} for i in range(8)]) is None
    assert gr.scalar_of(ident(c7={7: -one})) is None
    assert gr.scalar_of(ident(c7={})) is None
    assert gr.scalar_of(ident(c1={1: one, 0: one})) is None
    assert gr.scalar_of(ident(c1={1: one, 0: Cyc(0)})) == one
    assert gr.scalar_of(ident()[:7]) is None


def _sp8_with_a4(monkeypatch, a4):
    c_mat, (a1, a2, a3, _) = gr.sp8_generators()
    monkeypatch.setattr(gr, "sp8_generators",
                        lambda: (c_mat, [a1, a2, a3, a4]))


def test_sp8_lemma_rejects_a_non_involution(monkeypatch):
    # A = diag(1, ..., 1, -1) is real with A^2 = 1, but (CA)^2 is not scalar
    one = Cyc(1)
    _sp8_with_a4(monkeypatch, [{i: one if i < 7 else -one}
                               for i in range(8)])
    with pytest.raises(AssertionError,
                       match=r"Ad\(CA\) is not an involution"):
        gr.sp8_lemma()


def test_sp8_lemma_rejects_a_map_that_leaves_sp8(monkeypatch):
    # P = X + X with X = [[1, 1], [0, -1]] + 1_2 commutes with C and P^2 = 1,
    # so A = -C P has conj(A) A = -1 and (CA)^2 = 1; but P^t C P is not a
    # multiple of C, so Ad(CA) = Ad(P) moves sp8
    c_mat = gr.sp8_generators()[0]
    one = Cyc(1)
    x = [{0: one}, {0: one, 1: -one}, {2: one}, {3: one}]  # columns
    p = x + [{r + 4: v for r, v in col.items()} for col in x]
    _sp8_with_a4(monkeypatch, la.mat_mul(
        [{r: -v for r, v in col.items()} for col in c_mat], p))
    with pytest.raises(AssertionError, match="Ad does not preserve sp8"):
        gr.sp8_lemma()


# ---------------------------------------------------------------------------
# the integer product pass against the Fraction loops it replaced
# ---------------------------------------------------------------------------

def oracle_check_grading(gd):
    """check_grading as it was: every product of two component basis
    vectors in Fraction arithmetic, tested against its target with
    Subspace.coords."""
    table = gd.table
    n = table.dim
    stacked = [v for _, sub in gd.components for v in sub.basis]
    if len(stacked) != n:
        return CheckReport("grading", False, None,
                           f"components span dimension {len(stacked)} != {n}")
    if la.rank(stacked) != n:
        return CheckReport("grading", False, None,
                           "components are not independent")
    for g, sub_g in gd.components:
        for h, sub_h in gd.components:
            target = gd.component(gd.group.add(g, h))
            for sa in sub_g.basis:
                for sb in sub_h.basis:
                    w = table.mul_vec(sa, sb)
                    if not w:
                        continue
                    if target is None:
                        return CheckReport("grading", False, (g, h),
                                           "product lands in empty component")
                    if target.coords(w) is None:
                        return CheckReport("grading", False, (g, h),
                                           "product escapes target component")
    return CheckReport("grading", True)


def oracle_universal_group(gd):
    """universal_group as it was: a relation g + h = k for each pair g <= h
    with a nonzero Fraction product of basis vectors."""
    supp = gd.support
    index = {d: i for i, d in enumerate(supp)}
    relations = []
    for gi, (g, sub_g) in enumerate(gd.components):
        for hi, (h, sub_h) in enumerate(gd.components):
            if hi < gi or not any(gd.table.mul_vec(sa, sb)
                                  for sa in sub_g.basis
                                  for sb in sub_h.basis):
                continue
            ki = index.get(gd.group.add(g, h))
            if ki is None:
                raise ValueError("nonzero product outside the support")
            row = [0] * len(supp)
            row[gi] += 1
            row[hi] += 1
            row[ki] -= 1
            if any(row):
                relations.append({c: x for c, x in enumerate(row) if x})
    return presented_group(len(supp), relations)


def _test_gradings(ws):
    """Every grading the tests build, by name."""
    from e6grad import rootsys as rs
    m, j = jo.build_m(), jo.build_j()
    gp = pauli_grading(m)
    slot = [(0, 0)] * 3
    for i in (1, 2, 3):
        slot += [jo.PEIRCE_DEG[i]] * 8
    g2 = gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2, 2)), slot)
    chev = ws.model("chevalley").meta["chev"]
    z23 = FgAbelianGroup(0, (2, 2, 2))
    der_o = derivations(co.octonion_table(), co.octonion_degrees(), z23)
    out = {name: ws.grading(name) for name in gr.NAMED_GRADINGS}
    out.update({
        "octonions Z2^3": octonion_grading(),
        "split octonions Z2^3": octonion_grading(split=True),
        "Der(O)": gr.GradedDecomposition.from_degree_map(
            der_o.table, z23, der_o.blocks),
        "Pauli on M": gp,
        "Pauli on M relabeled": gr.GradedDecomposition(
            m.table, FgAbelianGroup(0, (3, 3)),
            [((d[1] % 3, (d[0] + d[1]) % 3), sub)
             for d, sub in gp.components]),
        "Z2^5 on J": jordan_octonion_grading(j),
        "Z2^3 on J": jordan_octonion_grading(j, 3),
        "Z on J": jordan_z_grading(j),
        "Z x Z2^3 on J": refine(jordan_z_grading(j),
                                jordan_octonion_grading(j, 3)),
        "slot Z2^2 on J": g2,
        "root grading Z^6": gr.GradedDecomposition.from_degree_map(
            chev.table, FgAbelianGroup(6),
            [(0,) * 6] * 6 + list(chev.pos)
            + [tuple(-x for x in r) for r in chev.pos]),
        "contact Z-grading": rs.z_grading_from_weights(
            chev, (0, 1, 0, 0, 0, 0)),
    })
    return out


def test_product_pass_matches_the_oracle_on_every_grading(ws):
    for name, gd in _test_gradings(ws).items():
        assert gr.check_grading(gd) == oracle_check_grading(gd), name
        assert gr.universal_group(gd) == oracle_universal_group(gd), name


def test_product_pass_raises_where_the_oracle_did():
    # Z-degree 0 for the unit and 1 for e1..e7: e1 e2 = e3 lands in the
    # empty degree 2
    gd = gr.GradedDecomposition.from_degree_map(
        co.octonion_table(), FgAbelianGroup(1), [(0,)] + [(1,)] * 7)
    want = oracle_check_grading(gd)
    assert want.detail == "product lands in empty component"
    assert gr.check_grading(gd) == want
    for ug in (gr.universal_group, oracle_universal_group):
        with pytest.raises(ValueError,
                           match="nonzero product outside the support"):
            ug(gd)


def test_product_pass_tests_membership_by_the_residual():
    # u u = u, u v = v, u w = 2 w on the basis u, v, w, graded by Z3 with
    # components span{u}, span{v + w}, span{v - w}: u (v + w) = v + 2 w
    # lies in the coordinates of its target span{v + w}, but not in it
    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[0][0], prod[0][1], prod[0][2] = ({0: Fraction(1)}, {1: Fraction(1)},
                                          {2: Fraction(2)})
    t = AlgebraTable(3, ["u", "v", "w"], prod)
    gd = gr.GradedDecomposition(t, FgAbelianGroup(0, (3,)), [
        ((0,), [{0: Fraction(1)}]),
        ((1,), [{1: Fraction(1), 2: Fraction(1)}]),
        ((2,), [{1: Fraction(1), 2: Fraction(-1)}])])
    want = oracle_check_grading(gd)
    assert (want.witness, want.detail) == \
        (((0,), (1,)), "product escapes target component")
    assert gr.check_grading(gd) == want


def _moved_vector(gd):
    """gd with the first basis vector of its first component of dimension
    > 1 moved into the next component."""
    comps = [(d, list(sub.basis)) for d, sub in gd.components]
    src = next(i for i, (_, vs) in enumerate(comps) if len(vs) > 1)
    comps[src + 1][1].append(comps[src][1].pop(0))
    return gr.GradedDecomposition(gd.table, gd.group, comps)


def _changed_constant(gd, partner):
    """gd on a copy of its table with one new structure constant at b_k:
    for the first nonzero product b_i b_j, i < j, with comp_of[i] !=
    comp_of[j], k is the first index with e_k outside the component of
    their degree sum.  With ``partner`` b_i b_j gets +1 and b_j b_i gets
    -1 at k, so the table stays anticommutative; without it only b_j b_i
    gets +1."""
    table = gd.table
    n = table.dim
    comp_of = {}  # coordinate -> first component whose first vector has it
    for c, (_, sub) in enumerate(gd.components):
        for k in sub.basis[0]:
            comp_of.setdefault(k, c)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                if table.prod[i][j] and comp_of.get(i) != comp_of.get(j))
    target = gd.component(gd.group.add(gd.support[comp_of[i]],
                                       gd.support[comp_of[j]]))
    k = next(k for k in range(n)
             if k not in table.prod[i][j] and not target.contains({k: 1}))
    prod = [list(row) for row in table.prod]
    prod[j][i] = {**prod[j][i], k: Fraction(-1 if partner else 1)}
    if partner:
        prod[i][j] = {**prod[i][j], k: Fraction(1)}
    bad = AlgebraTable(n, table.basis_names, prod)
    return gr.GradedDecomposition(bad, gd.group,
                                  [(d, sub) for d, sub in gd.components])


@pytest.mark.parametrize("name", ["gamma3", "gamma12"])
@pytest.mark.parametrize("corrupt, anticommutative", [
    (_moved_vector, True),
    (lambda gd: _changed_constant(gd, partner=True), True),
    (lambda gd: _changed_constant(gd, partner=False), False),
], ids=["moved vector", "constant and partner", "constant alone"])
def test_product_pass_gives_the_oracle_witness(ws, name, corrupt,
                                               anticommutative):
    bad = corrupt(ws.grading(name))
    # the changed constant alone takes the all-pairs path
    assert bad.table.check_anticommutative().ok == anticommutative
    want = oracle_check_grading(bad)
    assert not want.ok and want.witness is not None
    assert gr.check_grading(bad) == want
    try:
        want_group = oracle_universal_group(bad)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            gr.universal_group(bad)
    else:
        assert gr.universal_group(bad) == want_group
