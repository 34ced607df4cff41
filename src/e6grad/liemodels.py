"""Four exact constructions of the real Lie algebra e6 with signature -14.

  * Albert model   (Der(J) + J_0)^eps with J = H3(O, diag(1,-1,1));
                   eps = -1 gives signature -14; eps = +1 (signature -26)
                   is its Z2-twist, ``twist_z2`` by the parity in its meta.
  * Tits model     T(O, M) = Der(O) + (O_0 x M_0) + Der(M); T(Os, M) over
                   the split octonions (signature 2) is its Z2-twist by
                   O's third degree coordinate.
  * Flag model     a five-term Z-graded real form of
                   wedge^6 V* + wedge^3 V* + gl(V) + wedge^3 V + wedge^6 V
                   for V = C^6 with a hermitian form of signature (5, 1).
  * Chevalley model  the real span of the mixed compact/split basis attached
                   to an order-2 torus element (see rootsys).

Every build returns a Model whose 78-dim AlgebraTable has rational structure
constants and passes an exhaustive Jacobi check; Killing signatures are
computed by exact symmetric congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import composition, jordan, rootsys
from .abgroup import FgAbelianGroup
from .linalg import apply, commutator, kernel, mat_mul, rank, signature
from .scalar import Cyc, I as CYC_I
from .structalg import (AlgebraTable, RealForm, derivations, killing_form,
                        vec_add_scaled)


@dataclass
class Model:
    name: str
    table: AlgebraTable
    provenance: dict
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.table.dim

    def killing(self):
        """The Killing form as sparse columns (see ``killing_form``),
        computed once and kept in ``meta``."""
        if "killing" not in self.meta:
            self.meta["killing"] = killing_form(self.table)
        return self.meta["killing"]

    def killing_signature(self) -> int:
        """The signature of ``killing()``, computed once and kept next to
        it in ``meta``."""
        if "killing_signature" not in self.meta:
            p, m, z = signature(self.killing())
            if z:
                raise AssertionError("Killing form is degenerate")
            self.meta["killing_signature"] = p - m
        return self.meta["killing_signature"]


# ---------------------------------------------------------------------------
# Albert model
# ---------------------------------------------------------------------------

def build_albert() -> Model:
    """(Der(J) + J_0)^eps for eps = -1: [d, x] = d(x), [x, y] = -[R_x, R_y].
    ``twist_z2(table, meta["parity"], -1)`` is the eps = +1 algebra."""
    j = jordan.build_j()
    degrees = jordan.octonion_z2_degrees(j)
    group = FgAbelianGroup(0, (2, 2, 2, 2, 2))
    ders = derivations(j.table, degrees, group)
    if ders.dim != 52:
        raise AssertionError(f"dim Der(J) = {ders.dim} != 52")

    nj = j.dim
    # traceless basis of J: E11-E22, E22-E33, then the 24 iota vectors
    j0_vecs = [{0: Fraction(1), 1: Fraction(-1)},
               {1: Fraction(1), 2: Fraction(-1)}]
    j0_vecs += [{t: Fraction(1)} for t in range(3, nj)]
    j0_degrees = [degrees[0], degrees[1]] + [degrees[t] for t in range(3, nj)]

    def j_to_j0(vec: dict) -> dict:
        """Model coordinates of a traceless vector of J: x52 and x53 for
        the diagonal pair, then x(51 + t) for iota vector t."""
        c0 = vec.get(0, 0)
        c1 = c0 + vec.get(1, 0)
        if c1 + vec.get(2, 0) != 0:
            raise AssertionError("vector is not traceless")
        out = {52: c0, 53: c1}
        out.update((51 + t, vec[t]) for t in sorted(vec) if t >= 3)
        return {k: c for k, c in out.items() if c}

    r_ops = [j.r_operator(v) for v in j0_vecs]

    dim = 52 + 26
    names = [f"D{t}" for t in range(52)] + [f"x{t}" for t in range(26)]

    def mul(a, b):  # a <= b
        if b < 52:
            return ders.table.prod[a][b]
        if a < 52:
            return j_to_j0(ders.apply(a, j0_vecs[b - 52]))
        xa, xb = a - 52, b - 52
        comm = commutator(r_ops[xa], r_ops[xb])
        g = group.add(j0_degrees[xa], j0_degrees[xb])
        return {k: -c for k, c in ders.coords_in_block(comm, g).items()}

    table = AlgebraTable.build(dim, names, mul, -1)
    parity = [0] * 52 + [1] * 26
    z26_degrees = [blk + (0,) for blk in ders.blocks] + \
                  [d + (1,) for d in j0_degrees]
    meta = {
        "jordan": j,
        "derivations": ders,
        "j0_vectors": j0_vecs,
        "parity": parity,
        "z26_degrees": z26_degrees,
    }
    prov = {
        "model": "albert",
        "epsilon": -1,
        "jordan_algebra": "H3(O, diag(1,-1,1))",
        "octonion_lines": composition.FANO_LINES,
    }
    return Model("albert", table, prov, meta)


def albert_z_grading_operator(model: Model) -> list[dict]:
    """ad of the derivation 4 [R_{iota1(1)}, R_{E22}] as an element of the
    model (a homogeneous element of Der(J)), as sparse columns."""
    j = model.meta["jordan"]
    ders = model.meta["derivations"]
    d = jordan.z_grading_derivation(j)
    # the block of one entry; coords_in_block rejects an entry outside it
    l = next(l for l, col in enumerate(d) if col)
    cs = ders.coords_in_block(d, ders._shifts[l][min(d[l])])
    return [model.table.mul_vec(cs, {l: Fraction(1)})
            for l in range(model.dim)]


# ---------------------------------------------------------------------------
# Tits model
# ---------------------------------------------------------------------------

def build_tits() -> Model:
    """T(O, M) = Der(O) + (O_0 x M_0) + Der(M), with the four bracket rules.
    ``twist_z2(table, [d[2] for d in meta["degrees"]], -1)`` is T(Os, M)."""
    o_table = composition.octonion_table()
    o_degs = composition.octonion_degrees()
    g23 = FgAbelianGroup(0, (2, 2, 2))
    ders_o = derivations(o_table, o_degs, g23)
    if ders_o.dim != 14:
        raise AssertionError(f"dim Der(O) = {ders_o.dim} != 14")

    m = jordan.build_m()
    m_degs = m.meta["degrees"]
    g33 = FgAbelianGroup(0, (3, 3))
    ders_m = derivations(m.table, m_degs, g33)
    if ders_m.dim != 8:
        raise AssertionError(f"dim Der(M) = {ders_m.dim} != 8")

    m0_idx = [t for t in range(9) if m_degs[t] != (0, 0)]
    m0_pos = {t: k for k, t in enumerate(m0_idx)}

    # tensor basis: (e_i, m_j) for i = 1..7, j in m0_idx
    tensor = [(i, t) for i in range(1, 8) for t in m0_idx]
    tpos = {p: k for k, p in enumerate(tensor)}
    n_do, n_t, n_dm = 14, 56, 8
    dim = n_do + n_t + n_dm

    def tensor_vec(avec: dict, xvec: dict) -> dict:
        out = {}
        for i, ca in avec.items():
            if i == 0:
                raise AssertionError("tensor factor has a real part")
            for t, cx in xvec.items():
                out[n_do + tpos[(i, t)]] = ca * cx
        return out

    r_ops_m = [m.r_operator({t: Fraction(1)}) for t in range(9)]

    # The tensor-tensor bracket from factor products taken once per pair:
    # d_{a,b} coordinates, [a, b] and t(ab) per octonion pair, and tr(x.y),
    # x*y and the [R_x, R_y] coordinates per M pair.
    o_pair = {}
    for i in range(1, 8):
        for i2 in range(1, 8):
            dd = composition.d_ab({i: Fraction(1)}, {i2: Fraction(1)})
            cs = ders_o.coords_in_block(dd, g23.add(o_degs[i], o_degs[i2]))
            comm = dict(o_table.prod[i][i2])
            vec_add_scaled(comm, o_table.prod[i2][i], -1)
            o_pair[i, i2] = (list(cs.items()), comm,
                             2 * o_table.prod[i][i2].get(0, 0))
    m_pair = {}
    for t in m0_idx:
        for t2 in m0_idx:
            rcomm = commutator(r_ops_m[t], r_ops_m[t2])
            cs = ders_m.coords_in_block(rcomm, g33.add(m_degs[t], m_degs[t2]))
            m_pair[t, t2] = (m.trace_of(m.table.prod[t][t2]),
                             m.star({t: Fraction(1)}, {t2: Fraction(1)}),
                             list(cs.items()))
    third = Fraction(1, 3)

    def mul(a, b):  # a <= b
        if b < n_do:
            return ders_o.table.prod[a][b]
        if a >= n_do + n_t:
            w = ders_m.table.prod[a - n_do - n_t][b - n_do - n_t]
            return {n_do + n_t + k: c for k, c in w.items()}
        if b >= n_do + n_t:
            if a < n_do:
                return {}
            # [a x, d] = -a d(x)
            i, t = tensor[a - n_do]
            dx = ders_m.apply(b - n_do - n_t, {t: Fraction(1)})
            return tensor_vec({i: Fraction(-1)}, dx)
        if a < n_do:
            i, t = tensor[b - n_do]
            da = ders_o.apply(a, {i: Fraction(1)})
            return tensor_vec(da, {t: Fraction(1)})
        # both tensors
        (i, t), (i2, t2) = tensor[a - n_do], tensor[b - n_do]
        d_cs, comm, tab = o_pair[i, i2]
        trxy, star, r_cs = m_pair[t, t2]
        out: dict = {}
        # (1/3) tr(x.y) d_{a,b}
        if trxy:
            for k, c in d_cs:
                out[k] = out.get(k, 0) + third * trxy * c
        # [a,b] x (x*y)
        if comm and star:
            for k, c in tensor_vec(comm, star).items():
                out[k] = out.get(k, 0) + c
        # 2 t_O(ab) [R_x, R_y]
        if tab:
            for k, c in r_cs:
                key = n_do + n_t + k
                out[key] = out.get(key, 0) + 2 * tab * c
        return {k: c for k, c in out.items() if c}

    names = [f"dO{t}" for t in range(14)]
    names += [f"e{i}*u{m_degs[t][0]}{m_degs[t][1]}" for (i, t) in tensor]
    names += [f"dM{t}" for t in range(8)]
    table = AlgebraTable.build(dim, names, mul, -1)

    z2z3_degrees = []
    for t in range(14):
        z2z3_degrees.append(tuple(ders_o.blocks[t]) + (0, 0))
    for (i, t) in tensor:
        z2z3_degrees.append(tuple(o_degs[i]) + tuple(m_degs[t]))
    for t in range(8):
        z2z3_degrees.append((0, 0, 0) + tuple(ders_m.blocks[t]))

    meta = {
        "ders_o": ders_o,
        "jordan_m": m,
        "ders_m": ders_m,
        "tensor": tensor,
        "m0_idx": m0_idx,
        "degrees": z2z3_degrees,
    }
    prov = {
        "model": "tits",
        "octonions": "division",
        "jordan_algebra": "H3(C, E11+E23+E32)",
        "component_dims": [14, 56, 8],
    }
    return Model("tits", table, prov, meta)


# ---------------------------------------------------------------------------
# Chevalley model
# ---------------------------------------------------------------------------

def build_chevalley_form(signs=(-1, 1, 1, 1, 1, 1)) -> Model:
    chev = rootsys.ChevalleyE6()
    rf = rootsys.ChevalleyRealForm(chev, signs)
    meta = {"chev": chev, "real_form": rf, "signs": tuple(signs)}
    prov = {
        "model": "chevalley",
        "torus_signs": list(signs),
        "sign_convention": "bimultiplicative asymmetry function",
        "simple_root_order": "branch node second",
    }
    return Model("chevalley", rf.table, prov, meta)


def gamma13_operators(model: Model) -> list[list[dict]]:
    """The seven commuting order-2 automorphisms on the real form, as sparse
    columns: the six single-sign torus generators and omega composed with
    the defining torus element."""
    chev = model.meta["chev"]
    rf = model.meta["real_form"]
    maps = [rootsys.torus_auto(chev, tuple(-1 if t == j else 1
                                           for t in range(6)))
            for j in range(6)]
    maps.append(mat_mul(rootsys.omega_auto(chev),
                        rootsys.torus_auto(chev, model.meta["signs"])))
    return [rf.real_matrix_of(m) for m in maps]


def corollary_basis_report(model: Model) -> dict:
    """Orthogonality, semisimplicity and structure-constant checks for the
    basis carried by the Z2^7 grading.

    The normalized constants f^{ijk} = kappa([u_i,u_j],u_k)/kappa(u_k,u_k)
    are the expansion coefficients of [u_i, u_j] in the (kappa-orthogonal)
    basis.  Every triple (i, j, k) with f^{ijk} != 0 is checked under all six
    permutations, so each triple with some nonzero ordering is covered.
    ``antisymmetry_witness`` records a triple violating full antisymmetry
    when one exists; the trilinear form kappa([u_i,u_j],u_k) itself is
    verified totally antisymmetric.  ``nonzero_triples`` counts the triples
    with i < j.
    """
    table = model.table
    kappa = model.killing()
    n = table.dim
    ortho = all(i == j for j, col in enumerate(kappa) for i in col)
    norms = [kappa[i].get(i, Fraction(0)) for i in range(n)]
    neg = sum(1 for x in norms if x < 0)
    pos = sum(1 for x in norms if x > 0)

    # semisimple basis elements: squarefree minimal polynomial of ad u_i
    squarefree = []
    for i in range(n):
        mp = _min_poly_ad(table, i)
        squarefree.append(_poly_squarefree(mp))

    # structure constants
    rational = all(isinstance(c, Fraction)
                   for row in table.prod for cell in row for c in cell.values())

    def f_const(i, j, k):
        return table.prod[i][j].get(k, Fraction(0))

    perms = [((0, 1, 2), 1), ((1, 0, 2), -1), ((0, 2, 1), -1),
             ((2, 1, 0), -1), ((1, 2, 0), 1), ((2, 0, 1), 1)]
    trilinear_ok = True
    anti_ok = True
    witness = None
    nonzero_triples = 0
    for i in range(n):
        for j in range(n):
            for k, f_ijk in table.prod[i][j].items():
                nonzero_triples += i < j
                t_ijk = f_ijk * norms[k]
                for perm, sign in perms:
                    pi = tuple((i, j, k)[p] for p in perm)
                    f_p = f_const(*pi)
                    if f_p * norms[pi[2]] != sign * t_ijk:
                        trilinear_ok = False
                    if f_p != sign * f_ijk:
                        anti_ok = False
                        if witness is None:
                            witness = {"triple": (i, j, k), "perm": perm,
                                       "f": str(f_ijk), "f_perm": str(f_p),
                                       "names": [table.basis_names[t]
                                                 for t in (i, j, k)]}
    return {
        "orthogonal": ortho,
        "negative_norms": neg,
        "positive_norms": pos,
        "all_semisimple": all(squarefree),
        "constants_rational": rational,
        "trilinear_antisymmetric": trilinear_ok,
        "expansion_antisymmetric": anti_ok,
        "antisymmetry_witness": witness,
        "nonzero_triples": nonzero_triples,
    }


# ---------------------------------------------------------------------------
# Flag model
# ---------------------------------------------------------------------------

TRIPLES = [t for t in combinations(range(6), 3)]
TRIPLE_IDX = {t: i for i, t in enumerate(TRIPLES)}
S_SIGNS = (1, 1, 1, 1, 1, -1)  # hermitian form diag(1,1,1,1,1,-1)


def _perm_sign_sorted(seq) -> int:
    """Sign of the permutation sorting seq (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _eps_split(t, u) -> int:
    """Sign with e_t ^ e_u = eps * e_{012345} for complementary t, u."""
    return _perm_sign_sorted(list(t) + list(u))


def _wedge_replace(t: tuple, old: int, new: int):
    """(sorted tuple, sign) for the wedge monomial with old -> new; None if
    the result has a repeated factor."""
    if new in t and new != old:
        return None
    lst = [new if x == old else x for x in t]
    sign = _perm_sign_sorted(lst)
    return tuple(sorted(lst)), sign


def build_flag_complex() -> AlgebraTable:
    """The complex flag algebra as a rational table (a split Q-form).

    Basis: E_pq (36), e_T (20), e*_T (20), w = e_{012345}, h = e*_{012345}.
    The bracket normalizations are the unique (up to the diagonal gauge fixed
    here) choice making Jacobi hold:

      [u, f]    = M(u, f) - (1/3) <u, f> I6      (trace-pairing gl part)
      [u, u']   = u ^ u'                          (into w)
      [f, f']   = f ^ f'                          (into h)
      [w, f]    = -iota_f w,   [h, u] = -iota_u h
      [w, h]    = -(1/3) I6
    """
    n_gl, n_s1 = 36, 20
    idx_w = 76
    idx_h = 77

    def gl(p, q):
        return 6 * p + q

    def e_(t):
        return n_gl + TRIPLE_IDX[t]

    def f_(t):
        return n_gl + n_s1 + TRIPLE_IDX[t]

    third = Fraction(1, 3)

    def act_gl_on_e(p, q, t):
        """[E_pq, e_T] as a sparse dict."""
        if q not in t:
            return {}
        if p == q:
            return {e_(t): Fraction(1)}
        r = _wedge_replace(t, q, p)
        if r is None:
            return {}
        t2, sign = r
        return {e_(t2): Fraction(sign)}

    def act_gl_on_f(p, q, t):
        """[E_pq, e*_T]: dual action, (E_pq . e*_r) = -delta_{pr} e*_q."""
        if p not in t:
            return {}
        if p == q:
            return {f_(t): Fraction(-1)}
        r = _wedge_replace(t, p, q)
        if r is None:
            return {}
        t2, sign = r
        return {f_(t2): Fraction(-sign)}

    def mul(a, b):  # a <= b
        if a == b:
            return {}
        if a < n_gl:
            p, q = divmod(a, 6)
            if b < n_gl:
                r, s = divmod(b, 6)
                out = {}
                if q == r:
                    out[gl(p, s)] = out.get(gl(p, s), 0) + Fraction(1)
                if s == p:
                    out[gl(r, q)] = out.get(gl(r, q), 0) - Fraction(1)
                return {k: v for k, v in out.items() if v}
            if b < n_gl + n_s1:
                return act_gl_on_e(p, q, TRIPLES[b - n_gl])
            if b < n_gl + 2 * n_s1:
                return act_gl_on_f(p, q, TRIPLES[b - n_gl - n_s1])
            if b == idx_w:
                return {idx_w: Fraction(1)} if p == q else {}
            return {idx_h: Fraction(-1)} if p == q else {}
        if a < n_gl + n_s1:
            t = TRIPLES[a - n_gl]
            if b < n_gl + n_s1:
                u = TRIPLES[b - n_gl]
                if set(t) & set(u):
                    return {}
                return {idx_w: Fraction(_eps_split(t, u))}
            if b < n_gl + 2 * n_s1:
                u = TRIPLES[b - n_gl - n_s1]
                out = {}
                common = set(t) & set(u)
                if len(common) == 3:
                    for p in t:
                        out[gl(p, p)] = Fraction(1)
                    for p in range(6):
                        out[gl(p, p)] = out.get(gl(p, p), 0) - third
                elif len(common) == 2:
                    p = next(x for x in t if x not in common)
                    q = next(x for x in u if x not in common)
                    r = _wedge_replace(t, p, q)
                    if r is not None:
                        t2, sign = r
                        if t2 == u:
                            out[gl(p, q)] = Fraction(sign)
                return {k: v for k, v in out.items() if v}
            if b == idx_w:
                return {}
            # [e_T, h] = -[h, e_T] = +iota: [h, u] = -eps(T,Tc) e*_{Tc}
            tc = tuple(sorted(set(range(6)) - set(t)))
            return {f_(tc): Fraction(_eps_split(t, tc))}
        if a < n_gl + 2 * n_s1:
            t = TRIPLES[a - n_gl - n_s1]
            if b < n_gl + 2 * n_s1:
                u = TRIPLES[b - n_gl - n_s1]
                if set(t) & set(u):
                    return {}
                return {idx_h: Fraction(_eps_split(t, u))}
            if b == idx_w:
                # [f, w] = -[w, f] = +iota_f w
                tc = tuple(sorted(set(range(6)) - set(t)))
                return {e_(tc): Fraction(_eps_split(t, tc))}
            return {}
        if a == idx_w and b == idx_h:
            return {gl(p, p): -third for p in range(6)}
        return {}

    names = [f"E{p}{q}" for p in range(6) for q in range(6)]
    names += [f"e{''.join(map(str, t))}" for t in TRIPLES]
    names += [f"f{''.join(map(str, t))}" for t in TRIPLES]
    names += ["w", "h"]
    return AlgebraTable.build(78, names, mul, -1)


def _complement_sign(t: tuple) -> tuple[tuple, int]:
    """(Tc, g_T) with g_T = eps(T, Tc) s_T: the real form pairs e_T with
    -g_T e_Tc (u_T) and i e_T with i g_T e_Tc (v_T)."""
    tc = tuple(sorted(set(range(6)) - set(t)))
    s = 1
    for r in t:
        s *= S_SIGNS[r]
    return tc, _eps_split(t, tc) * s


class FlagRealForm(RealForm):
    """The real form assembled from su(5,1) + R I6, the +-1 eigenspaces of
    the twisted conjugation on wedge^3 V, and i-multiples of the top forms.

    Real basis layout (78 vectors):
      0..14   X_pq = E_pq - s_p s_q E_qp           (p < q)
      15..29  Y_pq = i (E_pq + s_p s_q E_qp)
      30..34  D_p  = i (E_pp - E_{p+1,p+1})
      35      I6
      36..55  u_T, v_T pairs over the ten triples T containing 0
      56..75  u*_T, v*_T pairs
      76      i w
      77      i h
    """

    def __init__(self):
        self.pairs = [(p, q) for p in range(6) for q in range(p + 1, 6)]
        self.t_with0 = [t for t in TRIPLES if 0 in t]
        names = []
        self.z_degrees = []
        basis = []
        one = Cyc(1)

        def gl(p, q):
            return 6 * p + q

        for (p, q) in self.pairs:
            sig = S_SIGNS[p] * S_SIGNS[q]
            basis.append({gl(p, q): one, gl(q, p): Cyc(-sig)})
            names.append(f"X{p}{q}")
            self.z_degrees.append(0)
        for (p, q) in self.pairs:
            sig = S_SIGNS[p] * S_SIGNS[q]
            basis.append({gl(p, q): CYC_I, gl(q, p): CYC_I * sig})
            names.append(f"Y{p}{q}")
            self.z_degrees.append(0)
        for p in range(5):
            basis.append({gl(p, p): CYC_I, gl(p + 1, p + 1): -CYC_I})
            names.append(f"D{p}")
            self.z_degrees.append(0)
        basis.append({gl(p, p): one for p in range(6)})
        names.append("I6")
        self.z_degrees.append(0)
        for base, star, deg in ((36, "", 1), (56, "*", -1)):
            for t in self.t_with0:
                tc, gs = _complement_sign(t)
                ie, ic = base + TRIPLE_IDX[t], base + TRIPLE_IDX[tc]
                tag = "".join(map(str, t))
                basis.append({ie: one, ic: Cyc(-gs)})
                basis.append({ie: CYC_I, ic: CYC_I * gs})
                names += [f"u{star}{tag}", f"v{star}{tag}"]
                self.z_degrees += [deg, deg]
        basis.append({76: CYC_I})
        names.append("iw")
        self.z_degrees.append(2)
        basis.append({77: CYC_I})
        names.append("ih")
        self.z_degrees.append(-2)
        super().__init__(build_flag_complex(), basis, names)

    # -- the grading automorphisms --------------------------------------------

    def theta_cols(self) -> list[dict]:
        """theta: x -> -x^t on sl, +id on I6; e_T -> eps i e_Tc;
        e*_T -> -eps i e*_Tc; -id on the top forms."""
        cols = []
        third = Fraction(1, 3)
        for p in range(6):
            for q in range(6):
                if p == q:
                    col = {6 * r + r: Cyc(third) for r in range(6)}
                    col[6 * p + p] = col[6 * p + p] - Cyc(1)
                    cols.append({k: v for k, v in col.items() if v})
                else:
                    cols.append({6 * q + p: Cyc(-1)})
        for t in TRIPLES:
            tc = tuple(sorted(set(range(6)) - set(t)))
            cols.append({36 + TRIPLE_IDX[tc]: CYC_I * _eps_split(t, tc)})
        for t in TRIPLES:
            tc = tuple(sorted(set(range(6)) - set(t)))
            cols.append({56 + TRIPLE_IDX[tc]: -CYC_I * _eps_split(t, tc)})
        cols.append({76: Cyc(-1)})
        cols.append({77: Cyc(-1)})
        return cols

    def phi_cols(self, diag_signs) -> list[dict]:
        """phi_A for A = diag(diag_signs) with det A = 1."""
        a = list(diag_signs)
        cols = []
        for p in range(6):
            for q in range(6):
                cols.append({6 * p + q: Cyc(a[p] * a[q])})
        for t in TRIPLES:
            s = a[t[0]] * a[t[1]] * a[t[2]]
            cols.append({36 + TRIPLE_IDX[t]: Cyc(s)})
        for t in TRIPLES:
            s = a[t[0]] * a[t[1]] * a[t[2]]
            cols.append({56 + TRIPLE_IDX[t]: Cyc(s)})
        cols.append({76: Cyc(1)})
        cols.append({77: Cyc(1)})
        return cols


FLAG_F_SIGNS = [
    (-1, -1, 1, 1, 1, 1),
    (-1, 1, -1, 1, 1, 1),
    (-1, 1, 1, -1, 1, 1),
    (-1, 1, 1, 1, -1, 1),
]


def build_flag() -> Model:
    rf = FlagRealForm()
    meta = {"real_form": rf, "z_degrees": rf.z_degrees}
    prov = {
        "model": "flag",
        "hermitian_signs": list(S_SIGNS),
        "bracket_constants": {
            "gl_pairing": "M(u,f) - (1/3)<u,f> I6",
            "wedge_s1": 1,
            "wedge_s-1": 1,
            "contract_w": -1,
            "contract_h": -1,
            "w_h": "-(1/3) I6",
        },
    }
    return Model("flag", rf.table, prov, meta)


def flag_theta_matrix(model: Model) -> list[dict]:
    """theta on the real basis, as sparse columns."""
    rf = model.meta["real_form"]
    return rf.real_matrix_of(rf.theta_cols())


def flag_f_matrices(model: Model) -> list[list[dict]]:
    """F_1..F_4 on the real basis, each as sparse columns."""
    rf = model.meta["real_form"]
    return [rf.real_matrix_of(rf.phi_cols(s)) for s in FLAG_F_SIGNS]


def flag_conjugation_matrix() -> list[dict]:
    """The realified matrix of the twisted conjugation on wedge^3 V, as
    sparse rows.

    The hermitian form gives the conjugate-linear map phi(v) = b(-, v);
    composing phi with the pairing identifications yields the conjugate-
    linear involution Theta(sum c_T e_T) = sum conj(c_T) s_T eps(Tc, T) e_Tc
    whose +-1 eigenspaces are the L_{+-1} summands.  Realified coordinates:
    the 20 real parts first, then the 20 imaginary parts.
    """
    n = len(TRIPLES)
    m = [{} for _ in range(2 * n)]
    for t_idx, t in enumerate(TRIPLES):
        tc = tuple(sorted(set(range(6)) - set(t)))
        s = 1
        for r in t:
            s *= S_SIGNS[r]
        coef = Fraction(s * _eps_split(tc, t))
        tci = TRIPLE_IDX[tc]
        m[tci][t_idx] = coef            # real part -> real part
        m[n + tci][n + t_idx] = -coef   # imaginary part flips
    return m


def flag_plus_eigenspace() -> list[dict]:
    """A basis of ker(Theta - id) on the realified wedge^3 V."""
    rows = flag_conjugation_matrix()
    for i, row in enumerate(rows):
        row[i] = row.get(i, 0) - 1
    return kernel(rows, len(rows))


def flag_e_element_index(model: Model) -> int:
    """Index of E = i(E_45 - E_54) = Y_45 in the real basis."""
    rf = model.meta["real_form"]
    return 15 + rf.pairs.index((4, 5))


def flag_ad_e(model: Model) -> list[dict]:
    """ad E as sparse columns: column l is [E, b_l], a row of the table."""
    return list(model.table.prod[flag_e_element_index(model)])


def _min_poly_ad(table: AlgebraTable, i: int) -> list[Fraction]:
    """Minimal polynomial of ad(b_i), monic, low degree first."""
    n = table.dim
    ad = table.prod[i]  # the columns of ad(b_i): column l is [b_i, b_l]

    def matvec(v: dict) -> dict:
        return apply(ad, v)

    # Krylov minimal polynomials on basis seeds, combined by lcm
    poly = [Fraction(1)]
    last = -1  # the seed of the last lcm update
    for seed in range(n):
        v = {seed: Fraction(1)}
        # apply current poly(ad) to the seed; if already zero, skip
        w = _poly_apply(poly, matvec, v)
        if not w:
            continue
        local = _krylov_min_poly(matvec, v)
        poly = _poly_lcm(poly, local)
        last = seed
    # verify poly(ad) = 0 on the seeds up to the last update; the later
    # ones were just found killed by the final poly
    for seed in range(last + 1):
        if _poly_apply(poly, matvec, {seed: Fraction(1)}):
            raise AssertionError("minimal polynomial verification failed")
    return poly


def _krylov_min_poly(matvec, v: dict):
    """The monic p of least degree with p(A) v = 0, low degree first: the
    first dependence of v, A v, A^2 v, ... read off as a kernel vector,
    which is 1 at the last (free) column."""
    vecs = [v]
    while rank(vecs) == len(vecs):
        vecs.append(matvec(vecs[-1]))
    rows: dict = {}  # coordinate k -> {power: entry}
    for p, u in enumerate(vecs):
        for k, c in u.items():
            rows.setdefault(k, {})[p] = c
    (dep,) = kernel(list(rows.values()), len(vecs))
    return [dep.get(p, Fraction(0)) for p in range(len(vecs))]


def _poly_apply(poly, matvec, v: dict) -> dict:
    # Horner: p(A) v
    out = {k: poly[-1] * c for k, c in v.items()}
    for c in reversed(poly[:-1]):
        out = matvec(out)
        if c:
            for k, x in v.items():
                s = out.get(k, 0) + c * x
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return {k: c for k, c in out.items() if c}


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        if b == [Fraction(0)] or not any(b):
            break
    lead = a[-1]
    return [x / lead for x in a]


def _poly_lcm(a, b):
    g = _poly_gcd(a, b)
    q, r = _poly_divmod(_poly_mul(a, b), g)
    if any(r):
        raise AssertionError("polynomial lcm failed")
    lead = q[-1]
    return [x / lead for x in q]


def _poly_deriv(a):
    return [i * c for i, c in enumerate(a)][1:] or [Fraction(0)]


def _poly_squarefree(a) -> bool:
    g = _poly_gcd(a, _poly_deriv(a))
    return len(g) == 1
