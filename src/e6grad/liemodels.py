"""Four exact constructions of the real Lie algebra e6 with signature -14.

  * Albert model   (Der(J) + J_0)^eps with J = H3(O, diag(1,-1,1));
                   eps = -1 gives signature -14, eps = +1 gives -26.
  * Tits model     T(O, M) = Der(O) + (O_0 x M_0) + Der(M).
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
from .linalg import mat_mul, signature
from .scalar import Cyc, I as CYC_I
from .structalg import (AlgebraTable, RealForm, dense_to_sparse, derivations,
                        killing_form, mat_commutator, sparse_to_dense)


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
        if "killing" not in self.meta:
            self.meta["killing"] = killing_form(self.table)
        return self.meta["killing"]

    def killing_signature(self) -> int:
        p, m, z = signature(self.killing())
        if z:
            raise AssertionError("Killing form is degenerate")
        return p - m


# ---------------------------------------------------------------------------
# Albert model
# ---------------------------------------------------------------------------

def build_albert(eps: int = -1) -> Model:
    """(Der(J) + J_0)^eps: brackets [d, x] = d(x), [x, y] = eps [R_x, R_y]."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    j = jordan.build_j()
    degrees = jordan.octonion_z2_degrees(j)
    group = FgAbelianGroup(0, (2, 2, 2, 2, 2))
    ders = derivations(j.table, degrees, group)
    if ders.dim != 52:
        raise AssertionError(f"dim Der(J) = {ders.dim} != 52")

    nj = j.dim
    # traceless basis of J: E11-E22, E22-E33, then the 24 iota vectors
    j0_vecs = []
    v = [Fraction(0)] * nj
    v[0], v[1] = Fraction(1), Fraction(-1)
    j0_vecs.append(v)
    v = [Fraction(0)] * nj
    v[1], v[2] = Fraction(1), Fraction(-1)
    j0_vecs.append(v)
    for t in range(3, nj):
        v = [Fraction(0)] * nj
        v[t] = Fraction(1)
        j0_vecs.append(v)
    j0_degrees = [degrees[0], degrees[1]] + [degrees[t] for t in range(3, nj)]

    def j_to_j0(vec: list) -> list:
        c0 = vec[0]
        c1 = vec[0] + vec[1]
        if vec[0] + vec[1] + vec[2] != 0:
            raise AssertionError("vector is not traceless")
        return [c0, c1] + list(vec[3:])

    r_ops = [j.r_operator(v) for v in j0_vecs]

    dim = 52 + 26
    names = [f"D{t}" for t in range(52)] + [f"x{t}" for t in range(26)]
    epsf = Fraction(eps)

    def mul(a, b):
        if a < 52 and b < 52:
            return ders.table.prod[a][b]
        if a < 52 <= b:
            x = dense_to_sparse(j0_vecs[b - 52])
            w = ders.apply(a, x)
            out = j_to_j0(sparse_to_dense(w, nj))
            return {52 + k: c for k, c in enumerate(out) if c}
        if b < 52 <= a:
            return {k: -c for k, c in mul(b, a).items()}
        xa, xb = a - 52, b - 52
        comm = mat_commutator(r_ops[xa], r_ops[xb])
        g = group.add(j0_degrees[xa], j0_degrees[xb])
        cs = ders.coords_in_block(comm, g)
        return {k: epsf * c for k, c in enumerate(cs) if c}

    table = AlgebraTable.build(dim, names, mul)
    parity = [0] * 52 + [1] * 26
    z26_degrees = [blk + (0,) for blk in ders.blocks] + \
                  [d + (1,) for d in j0_degrees]
    meta = {
        "jordan": j,
        "derivations": ders,
        "j0_vectors": j0_vecs,
        "j0_degrees": j0_degrees,
        "parity": parity,
        "z26_degrees": z26_degrees,
        "eps": eps,
    }
    prov = {
        "model": "albert",
        "epsilon": eps,
        "jordan_algebra": "H3(O, diag(1,-1,1))",
        "octonion_lines": composition.FANO_LINES,
    }
    return Model("albert", table, prov, meta)


def albert_z_grading_operator(model: Model) -> list[list[Fraction]]:
    """ad of the derivation 4 [R_{iota1(1)}, R_{E22}] as an element of the
    model (a homogeneous element of Der(J))."""
    j = model.meta["jordan"]
    ders = model.meta["derivations"]
    d = jordan.z_grading_derivation(j)
    blk = None
    for key, val in d.items():
        s = ders._shift_of(key)
        if blk is None:
            blk = s
        elif blk != s:
            raise AssertionError("grading derivation is not homogeneous")
    cs = ders.coords_in_block(d, blk)
    n = model.dim
    ad = [[Fraction(0)] * n for _ in range(n)]
    sparse_d = {t: c for t, c in enumerate(cs) if c}
    for l in range(n):
        w = model.table.mul_vec(sparse_d, {l: Fraction(1)})
        for k, c in w.items():
            ad[k][l] = c
    return ad


# ---------------------------------------------------------------------------
# Tits model
# ---------------------------------------------------------------------------

def build_tits(split: bool = False) -> Model:
    """T(O, M) = Der(O) + (O_0 x M_0) + Der(M), with the four bracket rules.

    ``split=True`` replaces O by the split octonions (signature 2 form).
    """
    o_table = composition.octonion_table(split)
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

    m_unit_vecs = []
    for t in range(9):
        v = [Fraction(0)] * 9
        v[t] = Fraction(1)
        m_unit_vecs.append(v)
    r_ops_m = [m.r_operator(m_unit_vecs[t]) for t in range(9)]

    third = Fraction(1, 3)

    def mul(a, b):
        # commutator order: both in Der(O)
        if a < n_do and b < n_do:
            return ders_o.table.prod[a][b]
        if a >= n_do + n_t and b >= n_do + n_t:
            w = ders_m.table.prod[a - n_do - n_t][b - n_do - n_t]
            return {n_do + n_t + k: c for k, c in w.items()}
        if a < n_do and b >= n_do + n_t:
            return {}
        if b < n_do and a >= n_do + n_t:
            return {}
        if a < n_do and n_do <= b < n_do + n_t:
            i, t = tensor[b - n_do]
            da = ders_o.apply(a, {i: Fraction(1)})
            return tensor_vec(da, {t: Fraction(1)})
        if b < n_do and n_do <= a < n_do + n_t:
            return {k: -c for k, c in mul(b, a).items()}
        if a >= n_do + n_t and n_do <= b < n_do + n_t:
            i, t = tensor[b - n_do]
            dx = ders_m.apply(a - n_do - n_t, {t: Fraction(1)})
            return tensor_vec({i: Fraction(1)}, dx)
        if b >= n_do + n_t and n_do <= a < n_do + n_t:
            return {k: -c for k, c in mul(b, a).items()}
        # both tensors
        (i, t), (i2, t2) = tensor[a - n_do], tensor[b - n_do]
        av, bv = composition.unit(i), composition.unit(i2)
        xv, yv = m_unit_vecs[t], m_unit_vecs[t2]
        out: dict = {}
        # (1/3) tr(x.y) d_{a,b}
        xy = m.mul_dense(xv, yv)
        trxy = m.trace_of(xy)
        if trxy:
            dmat = composition.d_ab(av, bv, split)
            dd = {(r, c): dmat[r][c] for r in range(8) for c in range(8)
                  if dmat[r][c]}
            g = g23.add(o_degs[i], o_degs[i2])
            cs = ders_o.coords_in_block(dd, g)
            for k, c in enumerate(cs):
                if c:
                    out[k] = out.get(k, 0) + third * trxy * c
        # [a,b] x (x*y)
        comm = composition.commutator(av, bv, split)
        if any(comm):
            star = m.star(xv, yv)
            if any(star):
                for k, c in tensor_vec(dense_to_sparse(comm),
                                       dense_to_sparse(star)).items():
                    out[k] = out.get(k, 0) + c
        # 2 t_O(ab) [R_x, R_y]
        tab = composition.trace_o(composition.oct_mul(av, bv, split))
        if tab:
            rcomm = mat_commutator(r_ops_m[t], r_ops_m[t2])
            g = g33.add(m_degs[t], m_degs[t2])
            cs = ders_m.coords_in_block(rcomm, g)
            for k, c in enumerate(cs):
                if c:
                    key = n_do + n_t + k
                    out[key] = out.get(key, 0) + 2 * tab * c
        return {k: c for k, c in out.items() if c}

    names = [f"dO{t}" for t in range(14)]
    names += [f"e{i}*u{m_degs[t][0]}{m_degs[t][1]}" for (i, t) in tensor]
    names += [f"dM{t}" for t in range(8)]
    table = AlgebraTable.build(dim, names, mul)

    z2z3_degrees = []
    for t in range(14):
        z2z3_degrees.append(tuple(ders_o.blocks[t]) + (0, 0))
    for (i, t) in tensor:
        z2z3_degrees.append(tuple(o_degs[i]) + tuple(m_degs[t]))
    for t in range(8):
        z2z3_degrees.append((0, 0, 0) + tuple(ders_m.blocks[t]))

    meta = {
        "octonions": o_table,
        "ders_o": ders_o,
        "jordan_m": m,
        "ders_m": ders_m,
        "tensor": tensor,
        "m0_idx": m0_idx,
        "degrees": z2z3_degrees,
        "split": split,
    }
    prov = {
        "model": "tits",
        "octonions": "split" if split else "division",
        "jordan_algebra": "H3(C, E11+E23+E32)",
        "component_dims": [14, 56, 8],
    }
    return Model("tits_split" if split else "tits", table, prov, meta)


# ---------------------------------------------------------------------------
# Chevalley model
# ---------------------------------------------------------------------------

def build_chevalley_form(signs=(-1, 1, 1, 1, 1, 1),
                         chev: rootsys.ChevalleyE6 | None = None) -> Model:
    if chev is None:
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


def gamma13_operators(model: Model) -> list[list[list[Fraction]]]:
    """The seven commuting order-2 automorphisms on the real form: the six
    single-sign torus generators and omega composed with the defining torus
    element."""
    chev = model.meta["chev"]
    rf = model.meta["real_form"]
    mats = [rootsys.torus_auto(chev, tuple(-1 if t == j else 1
                                           for t in range(6)))
            for j in range(6)]
    mats.append(mat_mul(rootsys.omega_auto(chev),
                        rootsys.torus_auto(chev, model.meta["signs"])))
    return [rf.real_matrix_of([{k: row[a] for k, row in enumerate(m) if row[a]}
                               for a in range(len(m))]) for m in mats]


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
    ortho = all(kappa[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    neg = sum(1 for i in range(n) if kappa[i][i] < 0)
    pos = sum(1 for i in range(n) if kappa[i][i] > 0)

    # semisimple basis elements: squarefree minimal polynomial of ad u_i
    squarefree = []
    for i in range(n):
        mp = _min_poly_ad(table, i)
        squarefree.append(_poly_squarefree(mp))

    # structure constants
    rational = all(isinstance(c, Fraction)
                   for row in table.prod for cell in row for c in cell.values())
    norms = [kappa[i][i] for i in range(n)]

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

    def mul(a, b):
        if a == b:
            return {}
        if b < a:
            return {k: -v for k, v in mul(b, a).items()}
        # now a < b
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
    return AlgebraTable.build(78, names, mul)


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
                    cols.append({k: v for k, v in col.items() if not v.is_zero()})
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


def flag_theta_matrix(model: Model) -> list[list[Fraction]]:
    rf = model.meta["real_form"]
    return rf.real_matrix_of(rf.theta_cols())


def flag_f_matrices(model: Model) -> list[list[list[Fraction]]]:
    rf = model.meta["real_form"]
    return [rf.real_matrix_of(rf.phi_cols(s)) for s in FLAG_F_SIGNS]


def flag_conjugation_matrix() -> list[list[Fraction]]:
    """The realified matrix of the twisted conjugation on wedge^3 V.

    The hermitian form gives the conjugate-linear map phi(v) = b(-, v);
    composing phi with the pairing identifications yields the conjugate-
    linear involution Theta(sum c_T e_T) = sum conj(c_T) s_T eps(Tc, T) e_Tc
    whose +-1 eigenspaces are the L_{+-1} summands.  Realified coordinates:
    the 20 real parts first, then the 20 imaginary parts.
    """
    n = len(TRIPLES)
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
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


def flag_plus_eigenspace_dim() -> int:
    """Dimension of ker(Theta - id) on the realified wedge^3 V."""
    from .linalg import kernel
    m = flag_conjugation_matrix()
    n = len(m)
    shifted = [[m[i][j] - (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    return len(kernel(shifted, n))


def flag_eigenspace_matches_basis(model: Model) -> bool:
    """The declared u_T, v_T vectors span exactly ker(Theta - id)."""
    from .linalg import kernel, rref
    m = flag_conjugation_matrix()
    n = len(m)
    shifted = [[m[i][j] - (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    ker = kernel(shifted, n)
    rf = model.meta["real_form"]
    vecs = []
    half = len(TRIPLES)
    for t in rf.t_with0:
        tc, gs = _complement_sign(t)
        u = [Fraction(0)] * n
        u[TRIPLE_IDX[t]] = Fraction(1)
        u[TRIPLE_IDX[tc]] = Fraction(-gs)
        v = [Fraction(0)] * n
        v[half + TRIPLE_IDX[t]] = Fraction(1)
        v[half + TRIPLE_IDX[tc]] = Fraction(gs)
        vecs.extend([u, v])
    red1, piv1 = rref([list(x) for x in ker])
    red2, piv2 = rref([list(x) for x in vecs])
    return len(piv1) == len(piv2) == 20 and \
        red1[:len(piv1)] == red2[:len(piv2)]


def flag_e_element_index(model: Model) -> int:
    """Index of E = i(E_45 - E_54) = Y_45 in the real basis."""
    rf = model.meta["real_form"]
    return 15 + rf.pairs.index((4, 5))


def flag_ad_e(model: Model) -> list[list[Fraction]]:
    n = model.dim
    idx = flag_e_element_index(model)
    ad = [[Fraction(0)] * n for _ in range(n)]
    for l in range(n):
        for k, c in model.table.prod[idx][l].items():
            ad[k][l] = c
    return ad


def _min_poly_ad(table: AlgebraTable, i: int) -> list[Fraction]:
    """Minimal polynomial of ad(b_i), monic, low degree first."""
    n = table.dim
    ad = table.prod[i]

    def matvec(v: dict) -> dict:
        out: dict = {}
        for l, c in v.items():
            # note ad acts as [b_i, b_l]
            for k, d in ad[l].items():
                s = out.get(k, 0) + c * d
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out

    # Krylov minimal polynomials on basis seeds, combined by lcm
    poly = [Fraction(1)]
    for seed in range(n):
        v = {seed: Fraction(1)}
        # apply current poly(ad) to the seed; if already zero, skip
        w = _poly_apply(poly, matvec, v)
        if not w:
            continue
        local = _krylov_min_poly(matvec, v, n)
        poly = _poly_lcm(poly, local)
    # verify poly(ad) = 0 on all seeds
    for seed in range(n):
        if _poly_apply(poly, matvec, {seed: Fraction(1)}):
            raise AssertionError("minimal polynomial verification failed")
    return poly


def _krylov_min_poly(matvec, v: dict, n: int):
    from .linalg import rref
    dense = []
    vecs = []
    cur = v
    while True:
        vec = [Fraction(0)] * n
        for k, c in cur.items():
            vec[k] = c
        dense.append(vec)
        red, piv = rref([row[:] for row in dense])
        if len(piv) < len(dense):
            break
        vecs.append(cur)
        cur = matvec(cur)
    # the last vector is a combination of the previous ones
    from .linalg import solve, transpose
    m = transpose(dense[:-1])
    rhs = dense[-1]
    cs = solve(m, rhs)
    if cs is None:
        raise AssertionError("krylov dependence solve failed")
    deg = len(dense) - 1
    poly = [-c for c in cs] + [Fraction(1)]
    return poly


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
