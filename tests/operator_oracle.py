"""Reference operator, trace, induced-condition and homomorphism checker.

Each condition is a hand-written function of one basis tuple in `Fraction`
arithmetic: the dense formulas of the relative Rota-Baxter, Nijenhuis,
cyclic 2-cocycle, symplectic, trace, induced and homomorphism conditions.
Products and brackets come from `structure_oracle` (dense grids), the maps
and forms are dense matrices, and the actions are sums of their matrices,
so nothing here goes through the library's sparse tables, its integer
rescaling or its generated code.  `reports` scans the conditions in order
and basis tuples in lexicographic order, stops after the first k failures
and counts tuples the way the library's checkers do, so the two must return
equal reports.  It is slow and used only by the tests.
"""

import itertools

from structure_oracle import _leib2, br2, br3, mul
from ternalg.linalg import Matrix, Vec
from ternalg.structures import CheckReport, Counterexample


def _action(mats, x: Vec, m: int) -> Matrix:
    """The sum of x_i mats[i]: mu(x), or a row of rho at x."""
    out = Matrix.zero(m, m)
    for i, c in enumerate(x.entries):
        if c:
            out = out + mats[i].scale(c)
    return out


def _rho(rho, x: Vec, y: Vec) -> Matrix:
    m = rho.module_dim
    return _action([_action(row, y, m) for row in rho.mats], x, m)


def _form(matrix: Matrix, x: Vec, y: Vec):
    return x.dot(matrix.apply(y))


def relative_rb(t, r, which=("rb-comm", "rb-3lie")):
    """rb-comm: Tu Tv - T(mu(Tu)v + mu(Tv)u); rb-3lie: [Tu,Tv,Tw] -
    T(rho(Tu,Tv)w + rho(Tv,Tw)u + rho(Tw,Tu)v), on module basis tuples."""
    a, m = r.algebra, r.module_dim
    T = t.matrix
    vb = [Vec.basis(m, p) for p in range(m)]
    timg = [T.apply(v) for v in vb]

    def rb_comm(idx):
        p, q = idx
        mu = r.mu.mats
        rhs = _action(mu, timg[p], m).apply(vb[q]) + _action(mu, timg[q], m).apply(vb[p])
        return mul(a, timg[p], timg[q]) - T.apply(rhs)

    def rb_3lie(idx):
        p, q, s = idx
        rhs = (_rho(r.rho, timg[p], timg[q]).apply(vb[s])
               + _rho(r.rho, timg[q], timg[s]).apply(vb[p])
               + _rho(r.rho, timg[s], timg[p]).apply(vb[q]))
        return br3(a, timg[p], timg[q], timg[s]) - T.apply(rhs)

    conds = {"rb-comm": ((m, m), rb_comm), "rb-3lie": ((m,) * 3, rb_3lie)}
    return [(name,) + conds[name] for name in which]


def cocycle(form, a):
    """B(xy, z) + B(yz, x) + B(zx, y) as a 1-vector."""
    M, e = form.matrix, a.basis_vectors()

    def value(idx):
        i, j, k = idx
        return Vec([_form(M, mul(a, e[i], e[j]), e[k]) + _form(M, mul(a, e[j], e[k]), e[i])
                    + _form(M, mul(a, e[k], e[i]), e[j])])

    return [("cocycle", (a.dim,) * 3, value)]


def symplectic(form, a):
    """B([x,y,z],u) - B([x,y,u],z) + B([x,z,u],y) - B([y,z,u],x) as a 1-vector."""
    M, e = form.matrix, a.basis_vectors()

    def value(idx):
        i, j, k, l = idx
        return Vec([_form(M, br3(a, e[i], e[j], e[k]), e[l])
                    - _form(M, br3(a, e[i], e[j], e[l]), e[k])
                    + _form(M, br3(a, e[i], e[k], e[l]), e[j])
                    - _form(M, br3(a, e[j], e[k], e[l]), e[i])])

    return [("symplectic", (a.dim,) * 4, value)]


def nijenhuis(nop, a):
    """N x N y - N(x o_N y) and [Nx,Ny,Nz] - N([x,y,z]_N), for the tensors a has."""
    N, e = nop.matrix, a.basis_vectors()
    ne = [N.apply(x) for x in e]

    def comm(idx):
        i, j = idx
        deformed = mul(a, ne[i], e[j]) + mul(a, e[i], ne[j]) - N.apply(mul(a, e[i], e[j]))
        return mul(a, ne[i], ne[j]) - N.apply(deformed)

    def three_lie(idx):
        i, j, k = idx
        x, y, z, nx, ny, nz = e[i], e[j], e[k], ne[i], ne[j], ne[k]
        deformed = (br3(a, nx, ny, z) + br3(a, nx, y, nz) + br3(a, x, ny, nz)
                    - N.apply(br3(a, nx, y, z) + br3(a, x, ny, z) + br3(a, x, y, nz))
                    + N.apply(N.apply(br3(a, x, y, z))))
        return br3(a, nx, ny, nz) - N.apply(deformed)

    conds = []
    if a.product is not None:
        conds.append(("nijenhuis-comm", (a.dim,) * 2, comm))
    if a.bracket is not None:
        conds.append(("nijenhuis-3lie", (a.dim,) * 3, three_lie))
    return conds


def trace(a, tau):
    """tau([x, y]) as a 1-vector."""
    e = a.basis_vectors()
    return [("trace", (a.dim,) * 2,
             lambda idx: Vec([tau.row.dot(br2(a, e[idx[0]], e[idx[1]]))]))]


def induced(a, tau):
    """tau(x1 x2) L(x3,x4,x5) - tau(x2) x1 L(...) - tau(x1) x2 L(...), L the
    binary Leibnizator."""
    e, t = a.basis_vectors(), tau.row

    def value(idx):
        i, j, k, l, m = idx
        lv = _leib2(a, e[k], e[l], e[m])
        return (lv.scale(t.dot(mul(a, e[i], e[j]))) - mul(a, e[i], lv).scale(t[j])
                - mul(a, e[j], lv).scale(t[i]))

    return [("induced-condition", (a.dim,) * 5, value)]


def homomorphism(f, src, dst):
    """f(x y) - f(x) f(y), and the same for each bracket src carries."""
    F, e = f.matrix, src.basis_vectors()
    fe = [F.apply(x) for x in e]
    conds = []
    for name, slot, op, arity in (("hom-product", "product", mul, 2),
                                  ("hom-bracket", "bracket", br3, 3),
                                  ("hom-binary-bracket", "binary_bracket", br2, 2)):
        if getattr(src, slot) is not None:
            conds.append((name, (src.dim,) * arity,
                          lambda idx, op=op: (F.apply(op(src, *(e[i] for i in idx)))
                                              - op(dst, *(fe[i] for i in idx)))))
    return conds


def reports(conds, kind_label: str, ks) -> dict:
    """{k: CheckReport} for each k in ks, from one scan up to the largest k."""
    kmax = max(ks)
    failures = []  # (counterexample, tuples counted through it, conditions begun)
    counted = 0
    for begun, (name, sizes, defect) in enumerate(conds, 1):
        for idx in itertools.product(*map(range, sizes)):
            counted += 1
            r = defect(idx)
            if not r.is_zero():
                failures.append((Counterexample(name, idx, r), counted, begun))
                if len(failures) == kmax:
                    break
        if len(failures) == kmax:
            break
    out = {}
    for k in ks:
        if len(failures) >= k:
            ces = [f[0] for f in failures[:k]]
            _, count, begun = failures[k - 1]
        else:
            ces, count, begun = [f[0] for f in failures], counted, len(conds)
        out[k] = CheckReport(
            passed=not ces,
            kind=kind_label,
            checked_identities=tuple(c[0] for c in conds[:begun]),
            counterexamples=tuple(ces),
            tuple_count=count,
        )
    return out
