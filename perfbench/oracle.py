"""Reference arithmetic for checking sumcollapse outputs, independent of the package.

Nothing here imports ``sumcollapse``.  Primality comes from trial division or
a plain numpy sieve, set membership from the set's definition, and residue
ring sums and closures from direct enumeration, so a defect in the package
cannot hide itself by also corrupting the reference.
"""

from __future__ import annotations

import math

import numpy as np

# counterexamples above this are not rechecked by enumeration; a verdict whose
# counterexample is larger counts as unrecheckable, hence as a failure
RECHECK_CAP = 20_000


def is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_flags(limit: int) -> np.ndarray:
    """``flags[n]`` is True iff ``n`` is prime, for ``0 <= n <= limit``."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def odd_composites_upto(flags: np.ndarray, hi: int) -> np.ndarray:
    """Odd composite numbers in ``[9, hi]`` in increasing order."""
    odd = np.arange(9, hi + 1, 2)
    return odd[~flags[odd]]


# -- set membership by definition -------------------------------------------


def odd_from(a: int):
    return lambda n: n >= a and n % 2 == 1


def ints_from(a: int):
    return lambda n: n >= a


def primes_from(p: int):
    return lambda n: n >= p and is_prime(n)


def rough_from(p: int):
    """Odd n >= 3 whose prime factors are all >= p."""

    def member(n: int) -> bool:
        if n < 3 or n % 2 == 0:
            return False
        return all(n % q for q in range(3, p, 2))

    return member


def odd_composite(n: int) -> bool:
    return n >= 9 and n % 2 == 1 and not is_prime(n)


def minus(member, excluded):
    excluded = frozenset(excluded)
    return lambda n: n not in excluded and member(n)


def in_fold_sum(x: int, member, n: int) -> bool:
    """Is ``x`` a sum of ``n`` (not necessarily distinct) members?"""
    if x < 0:
        return False
    parts = [v for v in range(0, x + 1) if member(v)]
    reach = 1  # bit s set: s is a sum of the folds taken so far
    for _ in range(n):
        nxt = 0
        for v in parts:
            nxt |= reach << v
        reach = nxt & ((1 << (x + 1)) - 1)
    return bool(reach >> x & 1)


def is_product_of(x: int, member) -> bool:
    """Is ``x`` a product of one or more members (each >= 2)?"""
    if member(x):
        return True
    d = 2
    while d * d <= x:
        if x % d == 0:
            for f in (d, x // d):
                if member(f) and is_product_of(x // f, member):
                    return True
        d += 1
    return False


def recheck_relation_counterexample(x, b_member, c_member, m: int, n: int, directed: bool) -> bool:
    """True iff ``x`` refutes ``B ~(m,n)~ C`` by one of the relation's three parts.

    The parts are: x lies in exactly one of the m-fold sums of B and the n-fold
    sums of C; x is in B yet no product of members of C; or (directed form) x
    is in C but not in B.
    """
    if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= RECHECK_CAP:
        return False
    if directed and c_member(x) and not b_member(x):
        return True
    if in_fold_sum(x, b_member, m) != in_fold_sum(x, c_member, n):
        return True
    return b_member(x) and not is_product_of(x, c_member)


def pair_sums_cover(excluded, top: int) -> int | None:
    """First even s in [6, top] that is no sum a + b of odd a, b >= 3 outside
    ``excluded``; None when every such s is covered."""
    excluded = frozenset(excluded)
    for s in range(6, top + 1, 2):
        a = 3
        while a <= s // 2 and (a in excluded or (s - a) in excluded):
            a += 2
        if a > s // 2:
            return s
    return None


def removal_witness_ok(witness, excluded) -> bool:
    """A witness ``(c, p, d)`` shows 3 + c = p + d with p an odd prime and d
    an odd number >= 3 outside the removed set."""
    c, p, d = witness
    return (
        c in excluded
        and p + d == 3 + c
        and p % 2 == 1
        and is_prime(p)
        and d >= 3
        and d % 2 == 1
        and d not in excluded
    )


def odd_primorial_products(limit: int) -> list[int]:
    """3*5, 3*5*7, ... up to ``limit``."""
    out, prod, p = [], 3, 5
    while prod * p <= limit:
        prod *= p
        out.append(prod)
        p += 2
        while not is_prime(p):
            p += 2
    return out


# -- residue rings ------------------------------------------------------------


def zm_sumset(mask: int, n: int, m: int) -> int:
    """n-fold sumset of the subset ``mask`` of Z/mZ, as a mask."""
    elems = [r for r in range(m) if mask >> r & 1]
    cur = set(elems)
    for _ in range(n - 1):
        cur = {(x + a) % m for x in cur for a in elems}
    return sum(1 << r for r in cur)


def zm_closure(mask: int, m: int) -> int:
    """Multiplicative semigroup generated by the subset ``mask`` of Z/mZ."""
    cur = {r for r in range(m) if mask >> r & 1}
    while True:
        grown = cur | {x * y % m for x in cur for y in cur}
        if grown == cur:
            return sum(1 << r for r in cur)
        cur = grown


def zm_row(b: int, c: int, m_fold: int, n_fold: int, m: int) -> dict[str, int]:
    """The relation components one ring-table row reports."""
    sumset_equal = zm_sumset(b, m_fold, m) == zm_sumset(c, n_fold, m)
    fp = not b & ~zm_closure(c, m)
    subset = not c & ~b
    return {
        "sumset_equal": int(sumset_equal),
        "fp": int(fp),
        "subset": int(subset),
        "symmetric": int(sumset_equal and fp),
        "directed": int(sumset_equal and fp and subset),
    }


def zm_is_optimal(b: int, n: int, m: int) -> bool:
    """The closure of ``b`` has the same n-fold sums as ``b``, and no proper
    non-empty submask of ``b`` relates onto it (same n-fold sums, and ``b``
    inside its closure)."""
    target = zm_sumset(b, n, m)
    if zm_sumset(zm_closure(b, m), n, m) != target:
        return False
    sub = (b - 1) & b
    while sub:
        if zm_sumset(sub, n, m) == target and not b & ~zm_closure(sub, m):
            return False
        sub = (sub - 1) & b
    return True
