"""Reference representation checker on dense exact matrices.

Each condition is a function of one algebra basis tuple returning its whole
m x m matrix in `Fraction` arithmetic, with no rescaling and no sparse
tables.  `check` scans tuples in lexicographic order and module columns
within each tuple, stops after the first k failing columns and counts
columns the same way `check_representation` does, so the two must return
equal reports.  It is slow and used only by the tests.
"""

import itertools

from ternalg.linalg import Matrix, Vec
from ternalg.structures import CheckReport, Counterexample, leibnizator2, leibnizator3


def _mu_of(mu, v: Vec) -> Matrix:
    out = Matrix.zero(mu.module_dim, mu.module_dim)
    for k, c in enumerate(v.entries):
        if c:
            out = out + mu.mats[k].scale(c)
    return out


def _comb(table, v: Vec, m: int) -> Matrix:
    out = Matrix.zero(m, m)
    for s, c in enumerate(v.entries):
        if c:
            out = out + table[s].scale(c)
    return out


def _mu_mult(r):
    a, mu = r.algebra, r.mu
    basis = a.basis_vectors()

    def mu_mult(t):
        i, j = t
        return _mu_of(mu, a.mul(basis[i], basis[j])) - mu.mats[i] @ mu.mats[j]

    return [("mu-mult", 2, mu_mult)]


def _lie(r):
    a, rho = r.algebra, r.rho
    basis = a.basis_vectors()

    def lie(t):
        i, j = t
        return (
            _mu_of(rho, a.br2(basis[i], basis[j]))
            - rho.mats[i] @ rho.mats[j]
            + rho.mats[j] @ rho.mats[i]
        )

    return [("rho-lie", 2, lie)]


def _three_lie(r):
    f = r.algebra.bracket.entries
    mats = r.rho.mats
    m = r.rho.module_dim

    def rho_of_bracket(i, j, k, l):
        """rho([e_i,e_j,e_k], e_l)"""
        out = Matrix.zero(m, m)
        for s, c in enumerate(f[i][j][k]):
            if c:
                out = out + mats[s][l].scale(c)
        return out

    def skew(t):
        i, j = t
        return mats[i][j] + mats[j][i]

    def kasymov_i(t):
        i, j, k, l = t
        return (
            mats[i][j] @ mats[k][l]
            - mats[k][l] @ mats[i][j]
            - rho_of_bracket(i, j, k, l)
            + rho_of_bracket(i, j, l, k)
        )

    def kasymov_ii(t):
        i, j, k, l = t
        return (
            rho_of_bracket(i, j, k, l)
            - mats[i][j] @ mats[k][l]
            - mats[j][k] @ mats[i][l]
            - mats[k][i] @ mats[j][l]
        )

    return [
        ("rho-skew", 2, skew),
        ("kasymov-i", 4, kasymov_i),
        ("kasymov-ii", 4, kasymov_ii),
    ]


def _l_maps(r):
    """(L1, L2, L3) matrices at a basis triple, computed on first use."""
    a, rho, mu = r.algebra, r.rho, r.mu
    basis = a.basis_vectors()
    memo = {}

    def at(i, j, k):
        if (i, j, k) not in memo:
            rij = rho.mats[i][j]
            mub = _mu_of(mu, a.br3(basis[i], basis[j], basis[k]))
            rho_ip = rho.of_partial(i, a.mul(basis[j], basis[k]))
            memo[i, j, k] = (
                rij @ mu.mats[k] - mu.mats[k] @ rij - mub,
                mu.mats[k] @ rij + mu.mats[j] @ rho.mats[i][k] - rho_ip,
                rij @ mu.mats[k] + rho.mats[i][k] @ mu.mats[j] - rho_ip,
            )
        return memo[i, j, k]

    return at


def _ternary_rep(r):
    a, mu = r.algebra, r.mu
    n, m = a.dim, mu.module_dim
    basis = a.basis_vectors()
    lm = _l_maps(r)
    prows = [[a.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]

    def rep1(t):
        i, j, k, l = t
        lhs = _comb([lm(s, k, l)[0] for s in range(n)], prows[i][j], m)
        return lhs - mu.mats[i] @ lm(j, k, l)[0] - mu.mats[j] @ lm(i, k, l)[0]

    def rep3(t):
        i, j, k, l = t
        lhs = _comb([lm(s, k, l)[1] for s in range(n)], prows[i][j], m)
        return lhs - mu.mats[i] @ lm(j, k, l)[1] - mu.mats[j] @ lm(i, k, l)[1]

    def rep2(t):
        i, j, k, l = t
        lvec = leibnizator3(a, basis[i], basis[j], basis[k], basis[l])
        l2 = lm(j, k, l)[1]
        return _mu_of(mu, lvec) - l2 @ mu.mats[i] + mu.mats[i] @ l2

    return [("rep-1", 4, rep1), ("rep-3", 4, rep3), ("rep-2", 4, rep2)]


def _dual(r):
    a, mu = r.algebra, r.mu
    n, m = a.dim, mu.module_dim
    basis = a.basis_vectors()
    lm = _l_maps(r)
    prows = [[a.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]

    def corep1(t):
        i, j, k, l = t
        lhs = _comb([lm(s, k, l)[0] for s in range(n)], prows[i][j], m)
        return lhs - lm(j, k, l)[0] @ mu.mats[i] - lm(i, k, l)[0] @ mu.mats[j]

    def corep2(t):
        i, j, k, l = t
        lhs = _comb([lm(s, k, l)[2] for s in range(n)], prows[i][j], m)
        return lhs + lm(j, k, l)[2] @ mu.mats[i] + lm(i, k, l)[2] @ mu.mats[j]

    def corep3(t):
        i, j, k, l = t
        lvec = leibnizator3(a, basis[i], basis[j], basis[k], basis[l])
        l3 = lm(j, k, l)[2]
        return _mu_of(mu, lvec) - l3 @ mu.mats[i] + mu.mats[i] @ l3

    return [("corep-1", 4, corep1), ("corep-2", 4, corep2), ("corep-3", 4, corep3)]


def _binary_rep(r):
    a, rho, mu = r.algebra, r.rho, r.mu
    n, m = a.dim, mu.module_dim
    basis = a.basis_vectors()
    l1t = [[None] * n for _ in range(n)]
    l2t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mub = _mu_of(mu, a.br2(basis[i], basis[j]))
            rho_p = _mu_of(rho, a.mul(basis[i], basis[j]))
            l1t[i][j] = rho.mats[i] @ mu.mats[j] - mu.mats[j] @ rho.mats[i] - mub
            l2t[i][j] = mu.mats[i] @ rho.mats[j] + mu.mats[j] @ rho.mats[i] - rho_p
    prows = [[a.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]

    def brep1(t):
        i, j, k = t
        lhs = _comb([l1t[s][k] for s in range(n)], prows[i][j], m)
        return lhs - mu.mats[i] @ l1t[j][k] - mu.mats[j] @ l1t[i][k]

    def brep2(t):
        i, j, k = t
        lvec = leibnizator2(a, basis[i], basis[j], basis[k])
        return _mu_of(mu, lvec) - l2t[j][k] @ mu.mats[i] + mu.mats[i] @ l2t[j][k]

    return [("brep-1", 3, brep1), ("brep-2", 3, brep2)]


KIND_CONDITIONS = {
    "comm-assoc-rep": (_mu_mult,),
    "lie-rep": (_lie,),
    "three-lie-rep": (_three_lie,),
    "fmanifold-rep": (_lie, _mu_mult, _binary_rep),
    "ternary-fmanifold-rep": (_three_lie, _mu_mult, _ternary_rep),
    "dual-conditions": (_dual,),
}


def conditions(kind: str, r):
    """(name, arity, matrix function) for every condition of the kind, in order."""
    return [c for group in KIND_CONDITIONS[kind] for c in group(r)]


def check(kind: str, r, max_counterexamples: int = 1) -> CheckReport:
    return scan(conditions(kind, r), r, kind, max_counterexamples)


def scan(conds, r, kind_label: str, max_counterexamples: int = 1) -> CheckReport:
    n, m = r.algebra.dim, r.module_dim
    budget = max(1, max_counterexamples)
    counterexamples = []
    checked = []
    tuple_count = 0
    for name, arity, matfn in conds:
        checked.append(name)
        for t in itertools.product(range(n), repeat=arity):
            mat = matfn(t)
            for p in range(m):
                tuple_count += 1
                col = mat.column(p)
                if not col.is_zero():
                    counterexamples.append(Counterexample(name, t + (p,), col))
                    if len(counterexamples) == budget:
                        return _report(kind_label, checked, counterexamples, tuple_count)
    return _report(kind_label, checked, counterexamples, tuple_count)


def _report(kind_label, checked, counterexamples, tuple_count) -> CheckReport:
    return CheckReport(
        passed=not counterexamples,
        kind=kind_label,
        checked_identities=tuple(checked),
        counterexamples=tuple(counterexamples),
        tuple_count=tuple_count,
    )
