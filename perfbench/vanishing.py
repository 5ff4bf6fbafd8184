"""Vanishing ideals of unions of projective linear subspaces over F_p.

The benchmark writes its ideal documents with this module instead of with
gmdkit, so the inputs stay byte-identical whatever a later change does to
gmdkit's Groebner engine, and a wrong intersection in gmdkit shows up as a
failed certification instead of a silently different input.

A form f lies in the ideal of the span of vectors v_1..v_k exactly when
f(u_1 v_1 + ... + u_k v_k) is the zero polynomial in u.  That condition is
linear in the coefficients of f, so every graded piece of the ideal of a
union is a kernel over F_p.  By Derksen and Sidman the ideal of s linear
subspaces is generated in degree at most s, so minimal generators come from
degrees 1..s.
"""

from __future__ import annotations

import itertools

VARS = ("x", "y", "z", "w")


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree d in n variables, lexicographically descending."""
    out = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + n - 2 - prev)
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


def rref(rows, p):
    """Row reduce a list of lists over F_p; returns (nonzero rows, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel(rows, ncols, p):
    """Basis of {c : M c = 0} for the matrix with the given rows."""
    reduced, pivots = rref(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis


def _restriction(e, span, p):
    """x^e evaluated at u_1 v_1 + ... + u_k v_k, as {u-exponent: coeff}."""
    k = len(span)
    poly = {(0,) * k: 1}
    for i, power in enumerate(e):
        form = {}
        for j in range(k):
            if span[j][i] % p:
                u = [0] * k
                u[j] = 1
                form[tuple(u)] = span[j][i] % p
        for _ in range(power):
            nxt = {}
            for a, ca in poly.items():
                for b, cb in form.items():
                    m = tuple(x + y for x, y in zip(a, b))
                    nxt[m] = (nxt.get(m, 0) + ca * cb) % p
            poly = {m: c for m, c in nxt.items() if c}
    return poly


def conditions(components, n, d, p):
    """Rows of the linear map f -> (f restricted to each component) in degree d."""
    cols = monomials(n, d)
    rows = []
    for span in components:
        images = [_restriction(e, span, p) for e in cols]
        for u in monomials(len(span), d):
            rows.append([img.get(u, 0) for img in images])
    return cols, rows


def hilbert_function(components, n, d, p) -> int:
    """dim of the degree-d piece of S / I(union of the components)."""
    cols, rows = conditions(components, n, d, p)
    return len(rref(rows, p)[1]) if rows else 0


def minimal_generators(components, n, p):
    """Minimal homogeneous generators of I(union), as {exponent: coeff} dicts."""
    gens = []
    previous = []  # basis of I_{d-1} as coefficient vectors
    prev_cols = []
    for d in range(1, len(components) + 1):
        cols, rows = conditions(components, n, d, p)
        index = {m: j for j, m in enumerate(cols)}
        piece = kernel(rows, len(cols), p)
        generated = []
        for vec in previous:
            for i in range(n):
                shifted = [0] * len(cols)
                for c, m in zip(vec, prev_cols):
                    if c:
                        m2 = list(m)
                        m2[i] += 1
                        shifted[index[tuple(m2)]] = c
                generated.append(shifted)
        span, pivots = rref(generated, p) if generated else ([], [])
        for vec in piece:
            if _reduce(vec, span, pivots, p):
                gens.append({m: c for m, c in zip(cols, vec) if c})
                span, pivots = rref(span + [vec], p)
        previous, prev_cols = piece, cols
    return gens


def _reduce(vec, rows, pivots, p):
    """Remainder of vec modulo the row space of an RREF matrix; [] when inside it."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        if v[c]:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v if any(v) else []


def poly_text(terms, names=VARS) -> str:
    """Polynomial string in gmdkit's input syntax, terms in descending lex order."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        factors = [] if c == 1 else [str(c)]
        for name, power in zip(names, e):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        parts.append("*".join(factors) or str(c))
    return "+".join(parts)


def linear_forms_vanishing_on(span, n, p):
    """Generators of the prime of one linear subspace: its annihilating linear forms."""
    forms = kernel([list(v) for v in span], n, p)
    out = []
    for vec in forms:
        out.append({tuple(1 if j == i else 0 for j in range(n)): c for i, c in enumerate(vec) if c})
    return out
