"""Multivariate polynomials over prime fields, ordered by grevlex.

Monomials are plain exponent tuples.  A polynomial is a coefficient map
{exponent tuple: residue in 1..p-1}; the zero polynomial has an empty map.
``GREVLEX.key`` is the sort key of the one monomial order on tuples, so
descending sorts give canonical term sequences.  The Groebner engine
compares its own packed monomials under the same order.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import cached_property

from .errors import ParseError
from .gflinalg import FieldSpec

Monomial = tuple[int, ...]

# Most variables of an input ring; the loader checks it, RingSpec does not.
MAX_VARIABLES = 12


class RingSpec:
    """Standard graded polynomial ring K[x_1..x_n], deg x_i = 1.

    Rings with the same field and variable names compare and hash equal.
    """

    def __init__(self, field: FieldSpec, names: tuple[str, ...]):
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"invalid variable name {name!r}")
        self.field = field
        self.names = names

    def __eq__(self, other):
        return (
            type(other) is RingSpec and self.names == other.names and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field, self.names))

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}


_SHORT_NAMES = ("x", "y", "z", "w")


def standard_ring(field: FieldSpec, nvars: int) -> RingSpec:
    """K[x, y, z, w] up to four variables, K[x1, ..., xn] beyond."""
    if nvars <= len(_SHORT_NAMES):
        return RingSpec(field, _SHORT_NAMES[:nvars])
    return RingSpec(field, tuple(f"x{i + 1}" for i in range(nvars)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def minimal_monomial_generators(exponents) -> tuple[Monomial, ...]:
    """Sorted minimal generating set of the monomial ideal.

    A proper divisor has lower degree, so in ascending degree each exponent
    is tested only against the generators already kept.
    """
    kept = []
    for e in sorted(set(exponents), key=sum):
        if any(monomial_divides(f, e) for f in kept):
            continue
        kept.append(e)
    return tuple(sorted(kept))


class MonomialOrder:
    """Graded reverse lexicographic order: higher degree first, then the
    smaller exponent in the last variable where two monomials differ."""

    __slots__ = ()

    def key(self, e: Monomial):
        return (sum(e), tuple(-x for x in reversed(e)))


GREVLEX = MonomialOrder()


class Polynomial:
    """Immutable polynomial: ring plus {exponent tuple: nonzero residue}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict[Monomial, int]):
        p = ring.field.p
        clean = {}
        for e, c in terms.items():
            c %= p
            if c:
                clean[tuple(e)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __getstate__(self):
        return (self.ring, self.terms)

    def __setstate__(self, state):
        object.__setattr__(self, "ring", state[0])
        object.__setattr__(self, "terms", state[1])

    @classmethod
    def _raw(cls, ring: RingSpec, clean_terms: dict[Monomial, int]) -> "Polynomial":
        # internal constructor: caller guarantees reduced nonzero coefficients
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "terms", clean_terms)
        return obj

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls._raw(ring, {})

    @classmethod
    def one(cls, ring: RingSpec) -> "Polynomial":
        return cls._raw(ring, {(0,) * ring.n: 1})

    @classmethod
    def variable(cls, ring: RingSpec, i: int) -> "Polynomial":
        e = [0] * ring.n
        e[i] = 1
        return cls._raw(ring, {tuple(e): 1})

    @classmethod
    def monomial(cls, ring: RingSpec, e: Monomial) -> "Polynomial":
        return cls(ring, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms descending in grevlex."""
        ordered = sorted(self.terms, key=GREVLEX.key, reverse=True)
        return [(e, self.terms[e]) for e in ordered]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial._raw(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) - c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial._raw(self.ring, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.field.p
        out: dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial._raw(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({poly_to_str(self)!r})"


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^]))")


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse e.g. ``x^3+y^2*z`` or ``2*x*y-z^2``.

    Terms are joined by + and -; a term is an optional integer coefficient
    and variable powers joined by *.  Whitespace is ignored.  Unknown
    variables and malformed exponents raise ParseError with the offset.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", 0)

    p = ring.field.p
    n = ring.n
    acc: dict[Monomial, int] = {}
    i = 0
    sign = 1
    # optional leading sign
    if tokens[i][0] == "op" and tokens[i][1] in "+-":
        sign = -1 if tokens[i][1] == "-" else 1
        i += 1

    def term_error(msg, at):
        raise ParseError(msg, at)

    while True:
        coeff = 1
        exps = [0] * n
        saw_factor = False
        while True:
            if i >= len(tokens):
                if not saw_factor:
                    term_error("expected a term", len(text))
                break
            kind, val, at = tokens[i]
            if kind == "int":
                coeff = (coeff * val) % p
                i += 1
                saw_factor = True
            elif kind == "name":
                idx = ring.name_index.get(val)
                if idx is None:
                    term_error(f"unknown variable {val!r}", at)
                exp = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        term_error("exponent must be an integer", tokens[i - 1][2])
                    exp = tokens[i][1]
                    i += 1
                exps[idx] += exp
                saw_factor = True
            else:
                if val == "^":
                    term_error("exponent is only allowed on a variable", at)
                break
            # factor separator
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens):
                    term_error("dangling '*'", tokens[i - 1][2])
                if tokens[i][0] == "op":
                    term_error("expected a factor after '*'", tokens[i][2])
                continue
            if i < len(tokens) and tokens[i][0] in ("int", "name"):
                term_error("missing '*' between factors", tokens[i][2])
        if not saw_factor:
            term_error("expected a term", tokens[i][2] if i < len(tokens) else len(text))
        e = tuple(exps)
        c = (acc.get(e, 0) + sign * coeff) % p
        if c:
            acc[e] = c
        elif e in acc:
            del acc[e]
        if i >= len(tokens):
            break
        kind, val, at = tokens[i]
        if kind != "op" or val not in "+-":
            term_error(f"expected '+' or '-', got {val!r}", at)
        sign = -1 if val == "-" else 1
        i += 1
        if i >= len(tokens):
            term_error("dangling sign", at)
    return Polynomial(ring, acc)


def monomial_to_str(ring: RingSpec, e: Monomial) -> str:
    parts = []
    for name, exp in zip(ring.names, e):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def poly_to_str(f: Polynomial) -> str:
    """Canonical text form: terms descending in grevlex.

    Coefficients are residues in 1..p-1, so no '-' signs appear and
    parse(poly_to_str(f)) == f.
    """
    if f.is_zero():
        return "0"
    ring = f.ring
    parts = []
    for e, c in f.sorted_terms():
        mono = monomial_to_str(ring, e)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return "+".join(parts)


def degree_monomials(n: int, t: int) -> list[Monomial]:
    """All exponent tuples of total degree t in n variables (unsorted)."""
    if t < 0:
        return []
    out = []
    for bars in itertools.combinations(range(t + n - 1), n - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(t + n - 2 - prev)
        out.append(tuple(exps))
    return out


def graded_piece_basis(ring: RingSpec, t: int) -> list[Monomial]:
    """Monomial basis of the degree-t piece of the ring, descending in grevlex."""
    return sorted(degree_monomials(ring.n, t), key=GREVLEX.key, reverse=True)
