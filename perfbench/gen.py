"""Seeded input documents for the verdict benchmark.

Every document is schema JSON, written with ternalg's canonical serializer,
so the same seed gives byte-identical files.  Fixed documents come from the
catalog; seeded ones are:

- ``dense8``: direct_sum(fil4, trunc(4)) with the binary bracket of
  gl2 (+) gl2, after a seeded unipotent change of basis with small rational
  entries.  An isomorphic copy of a coherent bundle, so it passes the same
  checks, but its tables are dense and carry denominators.
- ``nearmiss_a`` / ``nearmiss_b``: sd and dense8 with a non-unit rational
  added to one bracket orbit, with skew signs kept, so that skew3 still holds
  and the failures land in the quintic identities.  Each is confirmed broken
  through ``eval_defect`` and redrawn otherwise.
- ``malformed``: dense8 with one seeded corruption that must give exit 2.

Run as a script to write the documents of one seed into a directory:
``PYTHONPATH=src python3 perfbench/gen.py --seed 1 --out docs-out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from fractions import Fraction

from ternalg import catalog as cat
from ternalg import schema
from ternalg.constructions import direct_sum
from ternalg.linalg import InterMap, Matrix, Tensor3, Tensor4
from ternalg.representations import adjoint_rep, semidirect
from ternalg.structures import AlgebraBundle, eval_defect

SEEDED_DOCS = ("dense8", "nearmiss_a", "nearmiss_b")
MALFORMED = "malformed"

# Non-unit rationals for basis changes and perturbations.
_SMALL = [Fraction(p, q) for q in (1, 2, 3) for p in (-2, -1, 1, 2)
          if Fraction(p, q) not in (1, -1)]
_NEARMISS = [Fraction(p, q) for q in (2, 3, 5, 7) for p in (-3, -2, -1, 1, 2, 3)
             if Fraction(p, q).denominator != 1]
_QUINTIC = ("fundamental", "hm3")


def _fixed_objects() -> dict:
    fil4 = cat.fil4()
    adj = cat.fil4_adjoint()
    objs = {
        "fil4": schema.document_to_obj(fil4),
        "fil4_adjoint": schema.document_to_obj(adj.algebra, rep=adj),
        "fil4_rb": schema.document_to_obj(adj.algebra, rep=adj, maps={"T": cat.fil4_rb()}),
        "fil4_symplectic": schema.document_to_obj(fil4, form=cat.fil4_symplectic()),
        "trunc4": schema.document_to_obj(cat.trunc(4)),
        "sd": schema.document_to_obj(semidirect(adj)),
    }
    for n in (4, 5):
        bundle = cat.trunc(n)
        objs[f"r_int{n}"] = schema.document_to_obj(
            bundle, rep=adjoint_rep(bundle), maps={"T": cat.r_int(n)}
        )
    bundle, tau = cat.gl2_trace()
    objs["gl2_trace"] = schema.document_to_obj(
        bundle, maps={"tau": InterMap(Matrix([tau.row.entries]))}
    )
    return objs


def unipotent(rng: random.Random, n: int, pattern) -> tuple[list, list]:
    """An upper unitriangular P with seeded small rationals at the positions
    of ``pattern`` (pairs i < j), and its inverse."""
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j in pattern:
        p[i][j] = rng.choice(_SMALL)
    # Back substitution; exact because the diagonal is 1.
    q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q[i][j] = -sum((p[i][k] * q[k][j] for k in range(i + 1, j + 1)), Fraction(0))
    return p, q


def change_basis(nonzeros, p, q) -> dict:
    """Structure constants in the basis f_a = sum_i p[i][a] e_i.

    ``nonzeros`` maps (i_1, ..., i_r, k) to the coefficient of e_k in the
    r-ary operation on e_{i_1}, ..., e_{i_r}; the result uses the same layout.
    """
    n = len(p)
    cols = [[(a, p[i][a]) for a in range(n) if p[i][a]] for i in range(n)]
    rows = [[(c, q[c][k]) for c in range(n) if q[c][k]] for k in range(n)]
    out: dict = {}
    for idx, v in nonzeros:
        *ins, k = idx
        for choice in itertools.product(*(cols[i] for i in ins)):
            w = v
            for _a, coeff in choice:
                w *= coeff
            head = tuple(a for a, _ in choice)
            for c, coeff in rows[k]:
                key = head + (c,)
                out[key] = out.get(key, 0) + w * coeff
    return {k: v for k, v in out.items() if v}


def _lie_gl2_pair():
    """Binary bracket of gl2 (+) gl2 (sl2 plus a centre, twice), as nonzeros."""
    base, _tau = cat.gl2_trace()
    out = {}
    for (i, j, k), v in base.binary_bracket.nonzeros():
        out[(i, j, k)] = v
        out[(i + 4, j + 4, k + 4)] = v
    return out


# Off-diagonal positions of the basis change.  Fixed, so that every seed gives
# tables of about the same sparsity and the scan cost does not vary with it;
# the seed picks the values.
DENSE8_PATTERN = ((0, 2), (0, 5), (2, 6), (3, 5), (3, 6), (5, 6), (5, 7))


def dense8(rng: random.Random) -> AlgebraBundle:
    base = direct_sum(cat.fil4(), cat.trunc(4))
    p, q = unipotent(rng, base.dim, DENSE8_PATTERN)
    prod = change_basis(base.product.nonzeros(), p, q)
    brk = change_basis(base.bracket.nonzeros(), p, q)
    bb = change_basis(_lie_gl2_pair().items(), p, q)
    n = base.dim
    return AlgebraBundle(
        n, product=Tensor3.from_nonzeros(n, prod), bracket=Tensor4.from_nonzeros(n, brk),
        binary_bracket=Tensor3.from_nonzeros(n, bb),
        basis_labels=[f"f{i + 1}" for i in range(n)],
    )


def _perturb(b: AlgebraBundle, rng: random.Random) -> AlgebraBundle:
    n = b.dim
    i, j, k = sorted(rng.sample(range(n), 3))
    l = rng.randrange(n)
    c = rng.choice(_NEARMISS)
    entries = dict(b.bracket.nonzeros())
    for perm in itertools.permutations(range(3)):
        sign = 1
        for x, y in itertools.combinations(perm, 2):
            if x > y:
                sign = -sign
        idx = tuple((i, j, k)[s] for s in perm) + (l,)
        entries[idx] = entries.get(idx, 0) + sign * c
    return AlgebraBundle(
        n, product=b.product, bracket=Tensor4.from_nonzeros(n, entries),
        binary_bracket=b.binary_bracket, basis_labels=b.basis_labels,
    )


def _breaks_quintic(b: AlgebraBundle, rng: random.Random, tries: int = 400) -> bool:
    """True once eval_defect finds a nonzero fundamental or hm3 residual."""
    basis = b.basis_vectors()
    for _ in range(tries):
        name = rng.choice(_QUINTIC)
        t = [rng.randrange(b.dim) for _ in range(5)]
        if not eval_defect(name, b, [basis[x] for x in t]).is_zero():
            return True
    return False


def near_miss(base: AlgebraBundle, rng: random.Random, redraws: int = 50) -> AlgebraBundle:
    for _ in range(redraws):
        cand = _perturb(base, rng)
        if _breaks_quintic(cand, rng):
            return cand
    raise RuntimeError("no near-miss perturbation broke a quintic identity")


_CORRUPTIONS = (
    ("schema_version", lambda d, r: d.__setitem__("schema_version", 2)),
    ("index out of range", lambda d, r: d["bracket"][r.randrange(len(d["bracket"]))]
     .__setitem__("indices", [0, 1, 2, d["dim"]])),
    ("bad rational", lambda d, r: d["product"][r.randrange(len(d["product"]))]
     .__setitem__("value", "1/0")),
    ("duplicate entry", lambda d, r: d["bracket"].append(
        dict(d["bracket"][r.randrange(len(d["bracket"]))]))),
    ("dim mismatch", lambda d, r: d.__setitem__("dim", d["dim"] + 1)),
)


def malformed(obj: dict, rng: random.Random) -> str:
    bad = json.loads(json.dumps(obj))
    _name, corrupt = rng.choice(_CORRUPTIONS)
    corrupt(bad, rng)
    return schema.dumps(bad)


def documents(seed: int) -> dict[str, str]:
    """Name -> document text for one seed; fixed entries do not depend on it."""
    texts = {name: schema.dumps(obj) for name, obj in _fixed_objects().items()}
    rng = random.Random(f"ternalg-bench:{seed}")
    dense = dense8(rng)
    dense_obj = schema.document_to_obj(dense)
    texts["dense8"] = schema.dumps(dense_obj)
    sd = schema.parse_document(texts["sd"])[0].bundle
    texts["nearmiss_a"] = schema.dumps(schema.document_to_obj(near_miss(sd, rng)))
    texts["nearmiss_b"] = schema.dumps(schema.document_to_obj(near_miss(dense, rng)))
    texts[MALFORMED] = malformed(dense_obj, rng)
    return texts


def write(texts: dict[str, str], out_dir: str) -> None:
    """Write every document as <out_dir>/<name>.json."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write(documents(args.seed), args.out)
