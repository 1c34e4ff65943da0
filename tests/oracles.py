"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and self-contained: no imports from
the package under test, small-range only.
"""

import collections
import itertools
import math

import numpy as np


def simple_prime_set(limit: int) -> set[int]:
    """Plain byte-array sieve, independent of the package's packed one."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return {i for i, f in enumerate(flags) if f}


def is_prime_bf(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if is_prime_bf(k)]


def pi_bf(x: int) -> int:
    return sum(1 for k in range(2, x + 1) if is_prime_bf(k))


def odd_composites_upto(n: int) -> list[int]:
    return [k for k in range(9, n + 1, 2) if not is_prime_bf(k)]


def goldbach_pair(s: int, min_prime: int = 3) -> tuple[int, int] | None:
    """Smallest-first pair of primes >= min_prime summing to s, or None."""
    for p in range(min_prime, s // 2 + 1):
        if is_prime_bf(p) and is_prime_bf(s - p) and s - p >= min_prime:
            return (p, s - p)
    return None


def sum_of_k_primes_bf(s: int, k: int, min_prime: int = 3) -> bool:
    if k == 1:
        return s >= min_prime and is_prime_bf(s)
    for p in range(min_prime, s - min_prime * (k - 1) + 1):
        if is_prime_bf(p) and sum_of_k_primes_bf(s - p, k - 1, min_prime):
            return True
    return False


def least_split_bf(s: int, parts, floor: int, accepted) -> int:
    """The least a of ``parts`` whose partner s - a is >= ``floor`` and lies
    in ``accepted``, found by trying every part; 0 when none does."""
    return next((a for a in sorted(parts) if s - a >= floor and s - a in accepted), 0)


def nfold_sums_bf(values, n: int, lo: int, hi: int) -> list[int]:
    return sorted(
        {
            sum(c)
            for c in itertools.combinations_with_replacement(sorted(values), n)
            if lo <= sum(c) <= hi
        }
    )


def ordered_factorizations_bf(a: int, members) -> list[tuple[int, ...]]:
    """Every ordered tuple of members (all >= 2) multiplying to ``a``.

    Scans all divisors linearly; no memoisation, no sqrt pairing.
    """
    memberset = set(members) if not callable(members) else None
    contains = (lambda v: v in memberset) if memberset is not None else members
    out = []
    if contains(a):
        out.append((a,))
    for d in range(2, a):
        if a % d == 0 and contains(d):
            for rest in ordered_factorizations_bf(a // d, members):
                out.append((d,) + rest)
    return out


def k_partitions_bf(a: int, values, k: int) -> set[tuple[tuple[int, int], ...]]:
    """Distinct-part multiset partitions of ``a`` with total multiplicity ``k``."""
    out = set()
    for combo in itertools.combinations_with_replacement(sorted(values), k):
        if sum(combo) == a:
            parts = []
            for v in sorted(set(combo)):
                parts.append((v, combo.count(v)))
            out.add(tuple(parts))
    return out


def shift_or_bf(a_bits: int, b_bits: int, out_len: int) -> int:
    """OR of ``a_bits`` shifted by every set position of ``b_bits``, cut to
    ``out_len`` bits; one shift per position, no early stop."""
    acc = 0
    for j in range(b_bits.bit_length()):
        if b_bits >> j & 1:
            acc |= a_bits << j
    return acc & ((1 << max(out_len, 0)) - 1)


def least_uncovered_pair_sum(excluded, threshold: int) -> int | None:
    """Least even s in [6, threshold] that is no sum a + b of odd a, b >= 3
    outside ``excluded``; None when every such s is covered."""
    for s in range(6, threshold + 1, 2):
        if not any(
            a not in excluded and s - a not in excluded for a in range(3, s - 2, 2)
        ):
            return s
    return None


def _zm_tables_bf(m: int, n: int):
    """Every non-empty subset of Z/mZ as a frozenset, with its n-fold sumset
    (enumerating n-tuples of elements) and its multiplicative closure
    (multiplying pairs until nothing new appears)."""
    subsets = [
        frozenset(c) for k in range(1, m + 1) for c in itertools.combinations(range(m), k)
    ]
    sums = {s: frozenset(sum(t) % m for t in itertools.product(s, repeat=n)) for s in subsets}
    closure = {}
    for s in subsets:
        grown = set(s)
        while True:
            more = grown | {x * y % m for x in grown for y in grown}
            if more == grown:
                break
            grown = more
        closure[s] = frozenset(grown)
    return subsets, sums, closure


def zm_families_bf(m: int, n: int) -> dict:
    """Reduction and expansion families of every non-empty subset B of Z/mZ
    under the directed n-fold relation, by scanning every subset.

    Maps B (a frozenset) to (reduction members, minimal members, expansion
    members, maximal members), each a set of frozensets.
    """
    subsets, sums, closure = _zm_tables_bf(m, n)
    out = {}
    for b in subsets:
        red = {c for c in subsets if c <= b and sums[c] == sums[b] and b <= closure[c]}
        exp = {d for d in subsets if b <= d and sums[d] == sums[b] and d <= closure[b]}
        minimal = {c for c in red if not any(d < c for d in red)}
        maximal = {d for d in exp if not any(d < e for e in exp)}
        out[b] = (red, minimal, exp, maximal)
    return out


def zm_optimal_bf(m: int, n: int) -> list[int]:
    """Masks, ascending, of the optimal subsets B of Z/mZ for the n-fold
    relation: closure(B) has the n-fold sums of B, and no proper non-empty
    subset C of B has them with B inside closure(C).  Every proper subset is
    tried, not only the single removals."""
    subsets, sums, closure = _zm_tables_bf(m, n)
    optimal = [
        b
        for b in subsets
        if sums[closure[b]] == sums[b]
        and not any(c < b and sums[c] == sums[b] and b <= closure[c] for c in subsets)
    ]
    return sorted(sum(1 << x for x in b) for b in optimal)


def odd_prime_flags(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes over every integer in [0, limit], one bool per
    integer; returns the flags of the odd numbers (index i for 2i + 1)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return flags[1::2].copy()


def sieve_checks_bf(odd_prime: np.ndarray, limit: int) -> dict[str, tuple[bool, object]]:
    """The six prime-count checks over an odd-prime mask (index i for
    2i + 1, through ``limit``), each decided on whole arrays at once.

    Maps each check's ref to ``(holds, counterexample)``; a failing check's
    counterexample is its first failure in the order the battery reports
    it, a holding check's is None.
    """
    flags = np.zeros(limit + 1, dtype=bool)
    flags[2] = True
    flags[1::2] = odd_prime
    pi = np.cumsum(flags)  # pi[x] for every integer x in [0, limit]
    x = np.arange(limit + 1)
    c = np.flatnonzero(~flags & (x % 2 == 1) & (x >= 9))  # the odd composites
    pi_c = pi[c]
    k = np.arange(1, c.size + 1)

    def first(*arrays):
        return next((int(a[0]) for a in arrays if a.size), None)

    out = {}
    bad = first(c[c != 2 * k + 2 * pi_c - 1])
    out["sieve/composite-count-identity"] = (bad is None, bad)

    holding = k[pi_c >= k + 2][:22]
    bad = first(k[pi_c < k + 2])
    ok = holding.size == 22 and (holding == np.arange(1, 23)).all()
    out["sieve/prime-surplus-window"] = (bool(ok and bad == 23 and pi[93] == 24), bad)

    s = k >= 31
    bad = first(c[s][pi_c[s] > k[s] - 1], c[s][c[s] > 4 * k[s] - 3])
    out["sieve/index-upper-bounds"] = (bad is None, bad)

    xs = x[17:]
    ratio = xs / np.log(xs.astype(np.float64))
    guard = 1e-12
    bad = first(xs[pi[17:] <= ratio * (1 - guard)], xs[pi[17:] >= 1.25506 * ratio * (1 + guard)])
    out["sieve/prime-count-band"] = (bad is None, bad)

    bad_ms = []
    m = 1
    while 13 ** (m + 1) <= limit:
        s = c >= 13 ** (m + 1)
        if (pi_c[s] * m >= k[s]).any() or (c[s] >= (2 + 2 / m) * k[s] - 1).any():
            bad_ms.append(m)
        m += 1
    out["sieve/prime-count-scaling"] = (not bad_ms, bad_ms[0] if bad_ms else None)

    s = k >= 31
    bound = (0.5 * np.log(4 * k[s].astype(np.float64)) - 1) * pi_c[s] + 1
    bad = first(k[s][k[s] >= bound])
    out["sieve/index-log-bound"] = (bad is None, bad)
    return {ref: (ok, None if ok else bad) for ref, (ok, bad) in out.items()}


def partition_audit_bf(entries, limit: int, is_prime=is_prime_bf, listed: int = 3) -> tuple[str, ...]:
    """The anomalies of a strata table over the odd composites in [9, limit],
    found with Python sets.  ``entries`` lists ``(c, layer, witness_prime)``
    in table order, and ``is_prime`` says which numbers are prime.

    The kinds come in this order, the first ``listed`` of each: odd
    composites the table misses, entries that are not one and values listed
    more than once (each in increasing order), then in table order the
    entries without a layer and the assigned entries whose witness p fails: p = 0, a layer-1 pair that is not two odd primes
    <= limit, or a layer-k witness whose p is neither 2 nor such a prime or
    whose partner c + 3 - p is not listed at layer k - 1 (a value's layer is
    the one it is first listed with).  A count of the composites against
    the sieve's own checkpoint counts has no analogue here.
    """

    def odd_prime(v):
        return v % 2 == 1 and 3 <= v <= limit and is_prime(v)

    entries = list(entries)
    composites = {c for c in range(9, limit + 1, 2) if not is_prime(c)}
    times = collections.Counter(c for c, _, _ in entries)
    layer_of: dict[int, int] = {}
    for c, layer, _ in entries:
        layer_of.setdefault(c, layer)
    witnesses = []
    for c, layer, p in entries:
        q = c + 3 - p
        if not layer:
            continue
        if not p:
            witnesses.append(f"witness for {c} does not sum to {c + 3}")
        elif layer == 1 and not (odd_prime(p) and odd_prime(q)):
            witnesses.append(f"layer-1 witness for {c} is not an odd prime pair")
        elif layer != 1 and not ((p == 2 or odd_prime(p)) and layer_of.get(q, 0) == layer - 1):
            witnesses.append(f"layer-{layer} witness for {c} does not peel correctly")
    kinds = [
        [f"odd composite {c} missing from the table" for c in sorted(composites - set(times))],
        [f"table entry {c} is not an odd composite <= {limit}" for c in sorted(set(times) - composites)],
        [f"{c} is listed more than once" for c in sorted(c for c, n in times.items() if n > 1)],
        [f"{c} was never assigned to a layer" for c, layer, _ in entries if not layer],
        witnesses,
    ]
    return tuple(anomaly for kind in kinds for anomaly in kind[:listed])
