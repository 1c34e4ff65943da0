"""Named integer-set descriptions and the small text grammar the CLI accepts.

Grammar (whitespace-insensitive)::

    odd>=A              all odd integers >= A (A odd and positive)
    odd>=A \\ {a,b,...}  the same minus a finite exclusion list
    ints>=A             all integers >= A
    primes>=P           all primes >= P
    rough>=P            odd integers whose prime factors are all >= P
    composites          all odd composite numbers
    strata(K)           odd composites assigned to layer K
    {a,b,...}           an explicit finite set

Expressions are decidable pointwise and can materialise a window bitset;
prime-backed forms need a sieve table covering the window.

Both ``odd>=`` forms parse to a :class:`Progression`, the one description
of "an arithmetic progression minus a finite set".  Containment between two
progressions is decided exactly (:meth:`Progression.least_not_in`), and
the odd integers >= 3 minus finitely many are the sets the exact pair-sum
decision accepts.
"""

from __future__ import annotations

import bisect
import math

from .intsets import bits_from_values, progression_bits
from .sieve import PrimeTable, _is_prime_slow, is_rough


class SetExpr:
    """Base class; subclasses are small descriptions, not changed once built.

    A subclass names the fields that define it in ``_fields`` (its
    ``__slots__`` may hold more, such as caches): two descriptions are equal
    when they are of one type with equal fields, and the repr shows them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def contains(self, n: int, table: PrimeTable | None = None) -> bool:
        raise NotImplementedError

    def window_bits(self, lo: int, hi: int, table: PrimeTable | None = None) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def prime_floor(self) -> int | None:
        """A p such that every member is >= 2 with no prime factor below p;
        None when no such bound is known."""
        return None

    def primes_from(self) -> int | None:
        """A p such that every prime >= p is a member; None when none is known."""
        return None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash((type(self).__name__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _require_table(table: PrimeTable | None, hi: int, what: str) -> PrimeTable:
    if table is None:
        raise ValueError(f"{what} needs a sieve table covering {hi}")
    if hi > table.limit:
        raise ValueError(f"window end {hi} exceeds sieve limit {table.limit}")
    return table


class Progression(SetExpr):
    """The progression {base + i*step : i >= 0} minus a finite excluded set.

    With the default step 2 and an odd base this is ``odd>=base``; every
    excluded value must be a member of the bare progression.
    ``excluded_sorted`` holds the excluded values in increasing order,
    sorted once.
    """

    _fields = ("base", "step", "excluded")
    __slots__ = _fields + ("excluded_sorted",)

    def __init__(self, base: int, step: int = 2, excluded=frozenset()):
        if step < 1:
            raise ValueError(f"progression step must be positive, got {step}")
        self.base, self.step, self.excluded = base, step, frozenset(excluded)
        for e in self.excluded:
            if e < base or (e - base) % step:
                raise ValueError(f"excluded element {e} is not in {self._head()}")
        self.excluded_sorted = tuple(sorted(self.excluded))

    @property
    def max_excluded(self) -> int:
        return self.excluded_sorted[-1] if self.excluded else 0

    def contains(self, n, table=None):
        return n >= self.base and (n - self.base) % self.step == 0 and n not in self.excluded

    def window_bits(self, lo, hi, table=None):
        """Only the excluded values inside [lo, hi] are read."""
        ex = self.excluded_sorted
        inside = ex[bisect.bisect_left(ex, lo) : bisect.bisect_right(ex, hi)]
        return progression_bits(self.base, self.step, lo, hi) & ~bits_from_values(inside, lo, hi)

    def least_not_in(self, other: "Progression") -> int | None:
        """The least member of this set missing from ``other``; None when
        this set is contained in ``other``.

        A missing value is either excluded from ``other`` or outside the
        bare progression of ``other``.  Past both bases, the members of
        this progression outside that one recur with period
        lcm(step, other.step): the scan stops one period past both bases if
        it has met none, and otherwise at the first one not excluded here,
        which takes at most one period per excluded value.
        """
        missing = [f for f in other.excluded if self.contains(f)]
        settled = max(self.base, other.base) + math.lcm(self.step, other.step)
        recurring = False
        n = self.base
        while n < settled or recurring:
            if n < other.base or (n - other.base) % other.step:
                if n not in self.excluded:
                    missing.append(n)
                    break
                recurring = recurring or n >= other.base
            n += self.step
        return min(missing, default=None)

    def without(self, values) -> "Progression":
        return Progression(self.base, self.step, self.excluded | frozenset(values))

    def prime_floor(self):
        if self.base < 2:
            return None
        return 3 if self.base % 2 == 1 and self.step % 2 == 0 else 2

    def primes_from(self):
        if self.step == 1:
            start = max(self.base, 2)
        elif self.step == 2 and self.base % 2 == 1:
            start = max(self.base, 3)
        else:
            return None
        # every prime past the largest excluded one is still a member
        return max([start] + [e + 1 for e in self.excluded if _is_prime_slow(e)])

    def _head(self) -> str:
        if self.step == 2 and self.base >= 1 and self.base % 2 == 1:
            return f"odd>={self.base}"
        return f"{self.base}+{self.step}k"

    def describe(self):
        if not self.excluded:
            return self._head()
        return f"{self._head()} \\ {{{','.join(map(str, self.excluded_sorted))}}}"


class IntRange(SetExpr):
    """All integers >= ``lower``."""

    __slots__ = _fields = ("lower",)

    def __init__(self, lower: int):
        self.lower = lower

    def contains(self, n, table=None):
        return n >= self.lower

    def window_bits(self, lo, hi, table=None):
        return progression_bits(self.lower, 1, lo, hi)

    def prime_floor(self):
        return 2 if self.lower >= 2 else None

    def primes_from(self):
        return max(self.lower, 2)

    def describe(self):
        return f"ints>={self.lower}"


class Primes(SetExpr):
    """All primes >= ``min_prime``."""

    __slots__ = _fields = ("min_prime",)

    def __init__(self, min_prime: int):
        if not _is_prime_slow(min_prime):
            raise ValueError(f"primes>= takes a prime bound, got {min_prime}")
        self.min_prime = min_prime

    def contains(self, n, table=None):
        if n < self.min_prime:
            return False
        if table is not None and n <= table.limit:
            return table.is_prime(n)
        return _is_prime_slow(n)

    def window_bits(self, lo, hi, table=None):
        table = _require_table(table, hi, self.describe())
        start = max(lo, self.min_prime)
        bits = table.odd_flag_bits(start, hi, lo)
        return bits | (1 << (2 - lo)) if start <= 2 <= hi else bits

    def prime_floor(self):
        return self.min_prime

    def primes_from(self):
        return self.min_prime

    def describe(self):
        return f"primes>={self.min_prime}"


class RoughOdd(SetExpr):
    """Odd integers >= 3 with no prime factor below ``min_prime``.

    This is the multiplicative semigroup generated by the primes >=
    ``min_prime`` (an odd prime); with bound 3 it is all odd integers >= 3.
    """

    __slots__ = _fields = ("min_prime",)

    def __init__(self, min_prime: int):
        if min_prime < 3 or not _is_prime_slow(min_prime):
            raise ValueError(f"rough>= takes an odd prime bound, got {min_prime}")
        self.min_prime = min_prime

    def contains(self, n, table=None):
        return n >= 3 and n % 2 == 1 and is_rough(n, self.min_prime)

    def window_bits(self, lo, hi, table=None):
        bits = progression_bits(3, 2, lo, hi)
        for q in range(3, self.min_prime, 2):
            if _is_prime_slow(q):
                bits &= ~progression_bits(q, 2 * q, lo, hi)  # odd multiples of q
        return bits

    def prime_floor(self):
        return self.min_prime

    def primes_from(self):
        return self.min_prime

    def describe(self):
        return f"rough>={self.min_prime}"


class OddComposites(SetExpr):
    """All odd composite numbers (9, 15, 21, ...)."""

    __slots__ = ()

    def contains(self, n, table=None):
        if table is not None and n <= table.limit:
            return table.is_odd_composite(n)
        return n % 2 == 1 and n >= 9 and not _is_prime_slow(n)

    def window_bits(self, lo, hi, table=None):
        table = _require_table(table, hi, self.describe())
        return table.odd_flag_bits(max(lo, 9), hi, lo, composite=True)

    def prime_floor(self):
        return 3

    def describe(self):
        return "composites"


class Stratum(SetExpr):
    """Odd composites assigned to one layer of the prime-shift stratification,
    read from :func:`~sumcollapse.strata.strata_bits` up to a query's end
    (classification is self-contained below it) and kept as one bitset of
    the layer's members from the query's start on."""

    _fields = ("layer",)
    __slots__ = ("layer", "_cache")

    def __init__(self, layer: int):
        if layer < 1:
            raise ValueError(f"layer index must be >= 1, got {layer}")
        self.layer = layer
        self._cache = None  # (PrimeTable, lo, hi, the members in [lo, hi] as bits v - lo)

    def _bits(self, lo: int, hi: int, table: PrimeTable | None, grow: bool = False):
        """``(lo, bits)`` over a cached range covering [lo, hi], read anew if
        none does; with ``grow`` a read reaches twice as far as the table's last."""
        table = _require_table(table, hi, self.describe())
        cache = self._cache
        if cache is None or cache[0] is not table or not cache[1] <= lo <= hi <= cache[2]:
            # local import; strata builds on this module
            from .strata import layer_window_bits, strata_bits

            if grow and cache is not None and cache[0] is table:
                # rising queries then read the stream a logarithmic number of times
                hi = min(table.limit, max(hi, 2 * cache[2]))
            blocks = strata_bits(max(hi, 9), table)
            bits = layer_window_bits(blocks, (self.layer,), lo, hi)[self.layer]
            self._cache = cache = (table, lo, hi, bits)
        return cache[1], cache[3]

    def contains(self, n, table=None):
        if n < 9 or n % 2 == 0:
            return False
        lo, bits = self._bits(9, n, table, grow=True)
        return bool(bits >> (n - lo) & 1)

    def window_bits(self, lo, hi, table=None):
        if lo > hi:
            return 0
        start, bits = self._bits(lo, hi, table)
        return bits >> (lo - start) & ((1 << (hi - lo + 1)) - 1)

    def prime_floor(self):
        return 3

    def describe(self):
        return f"strata({self.layer})"


class FiniteSet(SetExpr):
    """An explicit finite set of integers."""

    __slots__ = _fields = ("values",)

    def __init__(self, values):
        self.values = frozenset(values)

    def contains(self, n, table=None):
        return n in self.values

    def window_bits(self, lo, hi, table=None):
        return bits_from_values(self.values, lo, hi)

    def prime_floor(self):
        if all(v >= 3 and v % 2 == 1 for v in self.values):
            return 3
        return 2 if all(v >= 2 for v in self.values) else None

    def describe(self):
        return "{" + ",".join(map(str, sorted(self.values))) + "}"


class PredicateSet(SetExpr):
    """Membership given by a plain callable; decidable pointwise only."""

    __slots__ = _fields = ("fn", "label")

    def __init__(self, fn, label: str = "predicate"):
        self.fn = fn
        self.label = label

    def contains(self, n, table=None):
        return bool(self.fn(n))

    def window_bits(self, lo, hi, table=None):
        return bits_from_values(filter(self.fn, range(lo, hi + 1)), lo, hi)

    def describe(self):
        return self.label


class Union(SetExpr):
    """Union of two set expressions."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: SetExpr, right: SetExpr):
        self.left, self.right = left, right

    def contains(self, n, table=None):
        return self.left.contains(n, table) or self.right.contains(n, table)

    def window_bits(self, lo, hi, table=None):
        return self.left.window_bits(lo, hi, table) | self.right.window_bits(lo, hi, table)

    def prime_floor(self):
        floors = (self.left.prime_floor(), self.right.prime_floor())
        return None if None in floors else min(floors)

    def primes_from(self):
        starts = (self.left.primes_from(), self.right.primes_from())
        return min((p for p in starts if p is not None), default=None)

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
        if not isinstance(base, Progression):
            raise ValueError(f"exclusions are only supported after odd>=: {text!r}")
        return base.without(_parse_braced(excl_text))
    if s.startswith("odd>="):
        lower = int(s[5:])
        if lower < 1 or lower % 2 == 0:
            raise ValueError(f"odd>= takes a positive odd bound, got {lower}")
        return Progression(lower)
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
    if isinstance(obj, str):
        return parse_set_expr(obj)
    if isinstance(obj, (set, frozenset, list, tuple, range)):
        return FiniteSet(frozenset(obj))
    if callable(obj):
        return PredicateSet(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a set expression")
