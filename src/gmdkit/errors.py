"""Shared exception types."""


class ParseError(ValueError):
    """Malformed input text (polynomials, JSON documents, matrices).

    ``position`` is an offset into the parsed text when known, otherwise a
    (line, column) pair from a document parser.
    """

    def __init__(self, message, position=None):
        self.message = message
        self.position = position
        super().__init__(self.describe())

    def describe(self):
        if self.position is None:
            return self.message
        if isinstance(self.position, tuple):
            line, col = self.position
            return f"{self.message} (line {line}, column {col})"
        return f"{self.message} (position {self.position})"


class HypothesisError(RuntimeError):
    """An operation was invoked outside its mathematical hypotheses."""


class InvariantError(RuntimeError):
    """A fact the computation relies on does not hold.

    These checks stand where ``assert`` would vanish under ``python -O``;
    the CLI reports them like a failed cross-check.
    """


class ExponentOverflowError(OverflowError):
    """A Groebner computation needs an exponent its packed monomials cannot hold.

    The Groebner engine packs each exponent into a 16-bit field with a guard
    bit, so exponents and elimination block degrees must stay at or below
    ``groebner.EXPONENT_LIMIT``.  The CLI exits 2, as for other inputs beyond
    a supported bound.
    """


class LimitError(Exception):
    """An input needs ``count`` of something that gmdkit caps at ``limit``.

    Each subclass names the count in its message ``template``.  The CLI
    exits 2, as for other inputs beyond a supported bound.
    """

    def __init__(self, count: int, limit: int):
        super().__init__(count, limit)
        self.count = count
        self.limit = limit

    def __str__(self):
        return self.template.format(count=self.count, limit=self.limit)


class PrimeSubsetLimitError(LimitError):
    """A prime-subset table would need more entries than gmdkit allows.

    The prime-subset route keeps a table of 2^a entries for a minimal
    primes, so the prime count is capped at ``schemes.PRIME_SUBSET_LIMIT``.
    """

    template = "the prime-subset route supports at most {limit} minimal primes, got {count}"


class BruteLimitError(LimitError):
    """A brute-force distance cell would scan more subspaces than gmdkit allows.

    ``gmd.delta_bruteforce`` visits every l-dimensional subspace of a
    degree-t piece, so its count is capped at ``gmd.BRUTE_SUBSPACE_LIMIT``;
    the prime-subset route has no such count.
    """

    template = (
        "brute force supports at most {limit} subspaces per cell, got {count}; "
        "lower --t-max or --ell-max, or use --method fast"
    )
