"""Named integer-set descriptions and the small text grammar the CLI accepts.

Grammar (whitespace-insensitive)::

    odd>=A              all odd integers >= A
    odd>=A \\ {a,b,...}  the same minus a finite exclusion list
    ints>=A             all integers >= A
    primes>=P           all primes >= P
    rough>=P            odd integers whose prime factors are all >= P
    composites          all odd composite numbers
    strata(K)           odd composites assigned to layer K
    {a,b,...}           an explicit finite set

Expressions are decidable pointwise and can materialise a window bitset;
prime-backed forms need a sieve table covering the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intsets import CofiniteOddSet, bits_from_values, odd_pattern_bits
from .sieve import PrimeTable, _is_prime_slow


class SetExpr:
    """Base class; subclasses are small immutable descriptions."""

    def contains(self, n: int, table: PrimeTable | None = None) -> bool:
        raise NotImplementedError

    def window_bits(self, lo: int, hi: int, table: PrimeTable | None = None) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_cofinite(self) -> CofiniteOddSet | None:
        """Exact cofinite-odd form, when one exists."""
        return None

    def subset_of_odd_from_3(self) -> bool:
        """Conservative: True only if provably within the odd integers >= 3."""
        return False

    def contains_all_odd_primes(self) -> bool:
        """Conservative: True only if provably a superset of the odd primes."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"


def _require_table(table: PrimeTable | None, hi: int, what: str) -> PrimeTable:
    if table is None:
        raise ValueError(f"{what} needs a sieve table covering {hi}")
    if hi > table.limit:
        raise ValueError(f"window end {hi} exceeds sieve limit {table.limit}")
    return table


@dataclass(frozen=True)
class OddRange(SetExpr):
    """Odd integers >= ``lower``, optionally minus a finite excluded set."""

    lower: int
    excluded: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.lower < 1 or self.lower % 2 == 0:
            raise ValueError(f"lower bound must be a positive odd integer, got {self.lower}")
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        for e in self.excluded:
            if e % 2 == 0 or e < self.lower:
                raise ValueError(f"excluded element {e} not an odd integer >= {self.lower}")

    def contains(self, n, table=None):
        return n % 2 == 1 and n >= self.lower and n not in self.excluded

    def window_bits(self, lo, hi, table=None):
        bits = odd_pattern_bits(self.lower, lo, hi)
        return bits & ~bits_from_values(self.excluded, lo, hi)

    def to_cofinite(self):
        if self.lower >= 3:
            return CofiniteOddSet(self.lower, self.excluded)
        return None

    def subset_of_odd_from_3(self):
        return self.lower >= 3

    def contains_all_odd_primes(self):
        return self.lower <= 3 and not any(_is_prime_slow(e) for e in self.excluded)

    def describe(self):
        if not self.excluded:
            return f"odd>={self.lower}"
        return f"odd>={self.lower} \\ {{{','.join(map(str, sorted(self.excluded)))}}}"


@dataclass(frozen=True)
class IntRange(SetExpr):
    """All integers >= ``lower``."""

    lower: int

    def contains(self, n, table=None):
        return n >= self.lower

    def window_bits(self, lo, hi, table=None):
        start = max(lo, self.lower)
        if start > hi:
            return 0
        return ((1 << (hi - start + 1)) - 1) << (start - lo)

    def subset_of_odd_from_3(self):
        return False

    def describe(self):
        return f"ints>={self.lower}"


@dataclass(frozen=True)
class Primes(SetExpr):
    """All primes >= ``min_prime``."""

    min_prime: int

    def __post_init__(self):
        if not _is_prime_slow(self.min_prime):
            raise ValueError(f"primes>= takes a prime bound, got {self.min_prime}")

    def contains(self, n, table=None):
        if n < self.min_prime:
            return False
        if table is not None and n <= table.limit:
            return table.is_prime(n)
        return _is_prime_slow(n)

    def window_bits(self, lo, hi, table=None):
        table = _require_table(table, hi, self.describe())
        return bits_from_values(table.primes_in(max(lo, self.min_prime), hi), lo, hi)

    def subset_of_odd_from_3(self):
        return self.min_prime >= 3

    def contains_all_odd_primes(self):
        return self.min_prime <= 3

    def describe(self):
        return f"primes>={self.min_prime}"


@dataclass(frozen=True)
class RoughOdd(SetExpr):
    """Odd integers >= 3 with no prime factor below ``min_prime``.

    This is the multiplicative semigroup generated by the primes >=
    ``min_prime`` (an odd prime); with bound 3 it is all odd integers >= 3.
    """

    min_prime: int

    def __post_init__(self):
        if self.min_prime < 3 or not _is_prime_slow(self.min_prime):
            raise ValueError(f"rough>= takes an odd prime bound, got {self.min_prime}")

    def contains(self, n, table=None):
        if n < 3 or n % 2 == 0:
            return False
        q = 3
        while q < self.min_prime:
            if n % q == 0:
                return False
            q += 2
        return True

    def window_bits(self, lo, hi, table=None):
        if self.min_prime == 3:
            return odd_pattern_bits(3, lo, hi)
        buf = bytearray((hi - lo) // 8 + 1) if hi >= lo else bytearray(1)
        small = [q for q in range(3, self.min_prime, 2)]
        start = max(lo, 3)
        if start % 2 == 0:
            start += 1
        for v in range(start, hi + 1, 2):
            if all(v % q for q in small):
                i = v - lo
                buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def subset_of_odd_from_3(self):
        return True

    def contains_all_odd_primes(self):
        return self.min_prime == 3

    def describe(self):
        return f"rough>={self.min_prime}"


@dataclass(frozen=True)
class OddComposites(SetExpr):
    """All odd composite numbers (9, 15, 21, ...)."""

    def contains(self, n, table=None):
        if n < 9 or n % 2 == 0:
            return False
        if table is not None and n <= table.limit:
            return not table.is_prime(n)
        return not _is_prime_slow(n)

    def window_bits(self, lo, hi, table=None):
        table = _require_table(table, hi, self.describe())
        odd = odd_pattern_bits(9, lo, hi)
        prime = bits_from_values(table.primes_in(max(lo, 9), hi), lo, hi)
        return odd & ~prime

    def subset_of_odd_from_3(self):
        return True

    def describe(self):
        return "composites"


class Stratum(SetExpr):
    """Odd composites assigned to one layer of the prime-shift stratification."""

    def __init__(self, layer: int):
        if layer < 1:
            raise ValueError(f"layer index must be >= 1, got {layer}")
        self.layer = layer
        self._cache = None  # (limit, StrataTable)

    def _strata(self, hi: int, table: PrimeTable | None):
        from .strata import compute_strata  # local import; strata builds on this module

        table = _require_table(table, hi, self.describe())
        # classification below hi is self-contained, so computing at the
        # window end is exact and recomputing larger never relabels
        bound = max(hi, 9)
        if self._cache is None or self._cache[0] < bound:
            self._cache = (bound, compute_strata(bound, table))
        return self._cache[1]

    def contains(self, n, table=None):
        if n < 9 or n % 2 == 0:
            return False
        st = self._strata(n, table)
        return st.layers.get(n) == self.layer

    def window_bits(self, lo, hi, table=None):
        st = self._strata(hi, table)
        members = st.composites[st.layer == self.layer]
        members = members[(members >= lo) & (members <= hi)]
        return bits_from_values(members.tolist(), lo, hi)

    def subset_of_odd_from_3(self):
        return True

    def describe(self):
        return f"strata({self.layer})"

    def __eq__(self, other):
        return isinstance(other, Stratum) and other.layer == self.layer

    def __hash__(self):
        return hash(("strata", self.layer))


@dataclass(frozen=True)
class FiniteSet(SetExpr):
    """An explicit finite set of integers."""

    values: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "values", frozenset(self.values))

    def contains(self, n, table=None):
        return n in self.values

    def window_bits(self, lo, hi, table=None):
        return bits_from_values(self.values, lo, hi)

    def subset_of_odd_from_3(self):
        return all(v >= 3 and v % 2 == 1 for v in self.values)

    def describe(self):
        return "{" + ",".join(map(str, sorted(self.values))) + "}"


class PredicateSet(SetExpr):
    """Membership given by a plain callable; decidable pointwise only."""

    def __init__(self, fn, label: str = "predicate"):
        self.fn = fn
        self.label = label

    def contains(self, n, table=None):
        return bool(self.fn(n))

    def window_bits(self, lo, hi, table=None):
        buf = bytearray((hi - lo) // 8 + 1) if hi >= lo else bytearray(1)
        for v in range(lo, hi + 1):
            if self.fn(v):
                i = v - lo
                buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def describe(self):
        return self.label


@dataclass(frozen=True)
class Union(SetExpr):
    """Union of two set expressions."""

    left: SetExpr
    right: SetExpr

    def contains(self, n, table=None):
        return self.left.contains(n, table) or self.right.contains(n, table)

    def window_bits(self, lo, hi, table=None):
        return self.left.window_bits(lo, hi, table) | self.right.window_bits(lo, hi, table)

    def subset_of_odd_from_3(self):
        return self.left.subset_of_odd_from_3() and self.right.subset_of_odd_from_3()

    def contains_all_odd_primes(self):
        return self.left.contains_all_odd_primes() or self.right.contains_all_odd_primes()

    def describe(self):
        return f"{self.left.describe()} u {self.right.describe()}"


def _parse_braced(text: str) -> frozenset[int]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"expected a braced list, got {text!r}")
    body = inner[1:-1].strip()
    if not body:
        raise ValueError("empty set literals are not allowed")
    try:
        return frozenset(int(part) for part in body.split(","))
    except ValueError as exc:
        raise ValueError(f"bad set literal {text!r}") from exc


def parse_set_expr(text: str) -> SetExpr:
    """Parse one grammar expression; raises ``ValueError`` on malformed input."""
    s = text.strip()
    if "\\" in s:
        base_text, _, excl_text = s.partition("\\")
        base = parse_set_expr(base_text)
        if not isinstance(base, OddRange):
            raise ValueError(f"exclusions are only supported after odd>=: {text!r}")
        return OddRange(base.lower, _parse_braced(excl_text))
    if s.startswith("odd>="):
        return OddRange(int(s[5:]))
    if s.startswith("ints>="):
        return IntRange(int(s[6:]))
    if s.startswith("primes>="):
        return Primes(int(s[8:]))
    if s.startswith("rough>="):
        return RoughOdd(int(s[7:]))
    if s == "composites":
        return OddComposites()
    if s.startswith("strata(") and s.endswith(")"):
        return Stratum(int(s[7:-1]))
    if s.startswith("{"):
        return FiniteSet(_parse_braced(s))
    raise ValueError(f"unrecognised set expression {text!r}")


def as_set_expr(obj) -> SetExpr:
    """Coerce the argument forms the checkers accept into a ``SetExpr``."""
    if isinstance(obj, SetExpr):
        return obj
    if isinstance(obj, CofiniteOddSet):
        return OddRange(obj.lower, obj.excluded)
    if isinstance(obj, str):
        return parse_set_expr(obj)
    if isinstance(obj, (set, frozenset, list, tuple)):
        return FiniteSet(frozenset(obj))
    if callable(obj):
        return PredicateSet(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a set expression")
