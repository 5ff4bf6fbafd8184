"""Multivariate polynomials over prime fields with graded monomial orders.

Monomials are plain exponent tuples.  A polynomial is a coefficient map
{exponent tuple: residue in 1..p-1}; the zero polynomial has an empty map.
Orders compare exponent tuples through sort keys, so ``max(terms, key=...)``
picks leading terms and descending sorts give canonical term sequences.
Each order memoises its keys (``MonomialOrder.keys``), so a key is computed
once per monomial rather than on every comparison.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError
from .gflinalg import FieldSpec

Monomial = tuple[int, ...]

MAX_VARIABLES = 12


@dataclass(frozen=True)
class RingSpec:
    """Standard graded polynomial ring K[x_1..x_n], deg x_i = 1."""

    field: FieldSpec
    names: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.names) <= MAX_VARIABLES):
            raise ValueError(f"ring needs 1..{MAX_VARIABLES} variables, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"invalid variable name {name!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def prepend_variable(self, name: str) -> "RingSpec":
        """Ring with one auxiliary variable in front (for elimination)."""
        while name in self.names:
            name = name + "_"
        return RingSpec(self.field, (name,) + self.names)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


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


def _grevlex_key(e: Monomial):
    return (sum(e), tuple(-x for x in reversed(e)))


# Entries per order in the key memo; a full memo is emptied and refilled, so
# memory stays bounded however many monomials a computation meets.
KEY_MEMO_LIMIT = 1 << 12


class _KeyMemo(dict):
    """Monomial -> order key, computing a missing key once with ``order.key``."""

    __slots__ = ("order",)

    def __init__(self, order: "MonomialOrder"):
        super().__init__()
        self.order = order

    def __missing__(self, e):
        if len(self) >= KEY_MEMO_LIMIT:
            self.clear()
        k = self[e] = self.order.key(e)
        return k


# One memo per distinct order, shared by equal order instances.
_key_memos: dict[tuple, _KeyMemo] = {}


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex, lex, or a two-block elimination order.

    ``elim`` with block k compares the first k exponents by grevlex, then the
    remaining ones by grevlex; monomials involving the first block dominate,
    which is what variable elimination needs.
    """

    kind: str
    block: int = 0

    def key(self, e: Monomial):
        if self.kind == "grevlex":
            return _grevlex_key(e)
        if self.kind == "lex":
            return tuple(e)
        if self.kind == "elim":
            return (_grevlex_key(e[: self.block]), _grevlex_key(e[self.block :]))
        raise ValueError(f"unknown order kind {self.kind!r}")

    @cached_property
    def keys(self) -> _KeyMemo:
        """Memoised ``key``: ``keys[e]`` equals ``key(e)``."""
        token = self.cache_token()
        memo = _key_memos.get(token)
        if memo is None:
            memo = _key_memos[token] = _KeyMemo(self)
        return memo

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def cache_token(self):
        return (self.kind, self.block)

    def __reduce__(self):
        # the key memo stays in its process; pickles carry only the order
        return (MonomialOrder, (self.kind, self.block))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


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

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.keys.__getitem__)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms descending in grevlex."""
        ordered = sorted(self.terms, key=GREVLEX.keys.__getitem__, reverse=True)
        return [(e, self.terms[e]) for e in ordered]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        if c == 1:
            return self
        inv = self.ring.field.inv(c)
        p = self.ring.field.p
        return Polynomial._raw(self.ring, {e: (a * inv) % p for e, a in self.terms.items()})

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

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial._raw(self.ring, {e: (a * c) % p for e, a in self.terms.items()})

    def term_mul(self, e: Monomial, c: int) -> "Polynomial":
        """Multiply by the single term c * x^e."""
        p = self.ring.field.p
        c %= p
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial._raw(
            self.ring, {monomial_mul(a, e): (b * c) % p for a, b in self.terms.items()}
        )

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
    return sorted(degree_monomials(ring.n, t), key=GREVLEX.keys.__getitem__, reverse=True)
