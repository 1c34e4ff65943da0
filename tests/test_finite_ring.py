import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcollapse import (
    ZmSubset,
    optimal_weight_set,
    relation_table,
    relation_table_rows,
    zm_closure,
    zm_expansion_family,
    zm_optimal_subsets,
    zm_product_witness,
    zm_quotient_check,
    zm_reduction_chain,
    zm_reduction_family,
    zm_relation,
    zm_sumset,
    zm_unit_group_check,
)
from sumcollapse import finite_ring
from sumcollapse.finite_ring import MAX_TABLE_ROWS

from oracles import zm_families_bf, zm_optimal_bf

Z = ZmSubset.from_elements


def brute_sumset(m, elements, n):
    import itertools

    return sorted({sum(c) % m for c in itertools.product(elements, repeat=n)})


def test_subset_validation():
    with pytest.raises(ValueError):
        ZmSubset(1, 0)
    with pytest.raises(ValueError):
        ZmSubset(40, 1)
    with pytest.raises(ValueError):
        ZmSubset(4, 1 << 5)
    s = Z(6, [8, 2])  # reduced mod 6
    assert s.elements() == (2,)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: Z(m, [1]),
        lambda m: zm_optimal_subsets(m, 2),
        lambda m: optimal_weight_set(m, 3),
        lambda m: list(relation_table_rows(m, 2)),
    ],
    ids=["from-elements", "optimal-subsets", "optimal-weights", "table-rows"],
)
@pytest.mark.parametrize("m", [0, 1, -3])
def test_degenerate_modulus_is_refused(call, m):
    with pytest.raises(ValueError, match=rf"modulus must be in \[2, 30\], got {m}"):
        call(m)


def test_sumsets_golden():
    assert zm_sumset(Z(8, [0, 2, 4]), 2).elements() == (0, 2, 4, 6)
    assert zm_sumset(Z(8, [0, 2]), 2).elements() == (0, 2, 4)
    s = Z(8, [1, 3])
    assert zm_sumset(s, 1) == s
    with pytest.raises(ValueError):
        zm_sumset(ZmSubset(8, 0), 2)


def test_sumsets_match_brute():
    import random

    rng = random.Random(3)
    for _ in range(120):
        m = rng.randint(2, 12)
        mask = rng.randint(1, (1 << m) - 1)
        n = rng.randint(1, 5)
        s = ZmSubset(m, mask)
        assert list(zm_sumset(s, n).elements()) == brute_sumset(m, s.elements(), n)


def test_closure_golden():
    assert zm_closure(Z(6, [0, 2])).elements() == (0, 2, 4)
    assert zm_closure(Z(8, [0, 2])).elements() == (0, 2, 4)
    assert zm_closure(Z(5, [1])).elements() == (1,)


def test_product_witness():
    w = zm_product_witness(1, Z(4, [3]))
    assert w == (3, 3)
    assert zm_product_witness(2, Z(8, [4])) is None
    w = zm_product_witness(4, Z(6, [2]))
    assert w == (2, 2)


def test_pair_swap_mod4():
    b, c = Z(4, [1]), Z(4, [3])
    r = zm_relation(b, c, 2, 2)
    assert r.symmetric and not r.subset  # related without containment
    assert not zm_relation(b, c, 3, 3).sumset_equal


def test_fold_counterexample_mod8():
    b, c = Z(8, [0, 2, 4]), Z(8, [0, 2])
    assert zm_relation(b, c, 3, 3).directed
    assert zm_relation(b, c, 1, 2).directed
    assert zm_relation(b, c, 2, 3).directed
    r22 = zm_relation(b, c, 2, 2)
    assert r22.fp and r22.subset and not r22.sumset_equal


def test_relation_validation():
    with pytest.raises(ValueError):
        zm_relation(Z(4, [1]), Z(6, [1]), 2, 2)


def test_reduction_family():
    fam = zm_reduction_family(Z(6, [0, 2, 4]), 2)
    assert any(c.mask == Z(6, [0, 2, 4]).mask for c in fam.members)
    fam8 = zm_reduction_family(Z(8, [0, 2, 4]), 3)
    assert any(c.mask == Z(8, [0, 2]).mask for c in fam8.members)
    assert fam8.reducible
    singleton = zm_reduction_family(Z(6, [2]), 2)
    assert singleton.members == (Z(6, [2]),)
    assert not singleton.reducible
    # minimal members have no proper related sub-member
    for c in fam8.minimal:
        assert not any(
            d.mask != c.mask and d.is_subset_of(c) for d in fam8.members
        )


def test_expansion_family():
    sub = Z(6, [0, 2, 4])  # multiplicatively closed
    fam = zm_expansion_family(sub, 2)
    assert fam.members == (sub,)
    assert not fam.expandable
    full = Z(6, range(6))
    assert zm_expansion_family(full, 2).members == (full,)


def test_expansion_family_nontrivial():
    b = Z(4, [1])  # closure {1}; nothing else can join
    fam = zm_expansion_family(b, 2)
    assert fam.members == (b,)
    c = Z(8, [0, 2])
    fam = zm_expansion_family(c, 3)
    assert any(d.mask == Z(8, [0, 2, 4]).mask for d in fam.members)
    assert fam.expandable


def test_family_scan_guards():
    # the walk up stays inside closure(B), so the guard counts closure(B) \ B
    b = Z(30, [1])
    assert zm_expansion_family(b, 2).members == (b,)
    with pytest.raises(ValueError, match=r"2\^22 masks exceeds"):
        zm_expansion_family(Z(30, [2, 3, 5, 7]), 2)  # closure of 26 elements
    with pytest.raises(ValueError, match=r"2\^21 masks exceeds"):
        zm_reduction_family(Z(30, range(21)), 2)
    # refused before any walk: a 17-element B would take minutes
    with pytest.raises(ValueError, match=r"2\^17 masks exceeds the 2\^16 guard"):
        zm_reduction_family(Z(30, range(17)), 2)


def test_reduction_chain():
    b = Z(8, [0, 2, 4])
    chain = zm_reduction_chain(b, 3)
    assert chain[0] == b
    for earlier, later in zip(chain, chain[1:]):
        assert later.is_subset_of(earlier) and len(later) == len(earlier) - 1
        assert zm_relation(earlier, later, 3, 3).directed
    assert not zm_reduction_family(chain[-1], 3).reducible
    irr = Z(6, [2])
    assert zm_reduction_chain(irr, 2) == [irr]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", range(2, 9))
def test_families_against_brute_force(m, n):
    def sets(family):
        return {frozenset(s.elements()) for s in family}

    def by_size(family):
        return family == tuple(sorted(family, key=lambda s: (len(s), s.mask)))

    for b_set, (red, minimal, exp, maximal) in zm_families_bf(m, n).items():
        b = Z(m, b_set)
        rd, ep = zm_reduction_family(b, n), zm_expansion_family(b, n)
        assert (sets(rd.members), sets(rd.minimal)) == (red, minimal), b.describe()
        assert (sets(ep.members), sets(ep.maximal)) == (exp, maximal), b.describe()
        assert all(map(by_size, (rd.members, rd.minimal, ep.members, ep.maximal)))
        assert rd.reducible == (len(zm_reduction_chain(b, n)) > 1), b.describe()
        for d in ep.members:
            unexpanded = zm_expansion_family(d, n).members == (d,)
            assert unexpanded == (d in ep.maximal), (b.describe(), d.describe())


# sha256 of the JSON mask list of ``zm_optimal_subsets(m, 2)``, frozen from the
# scan that tested every submask of each candidate for reducibility (m <= 12)
# and from the scan that called zm_sumset and zm_closure per subset (m = 16)
OPTIMAL_PAIR_SHA256 = {
    2: "a36b1f2c3f84522dd1005145646617d7054c0851e97c72a039c0bdfac9fa07f3",
    3: "0795b18fffb85f4981b3902fb9ca30f6c18a1abc0ece66ce018e8e889f5e2d13",
    4: "867396f2a669e2f80582c73db301d2f0b2e1ccc76790f2eae4ec1079d8d81e67",
    5: "28e110f550db698a3e8b2b3d088b58487efedd5597bef560d651d008122b285b",
    6: "0fc971b75de374288460a7a9a0a5210044447acadef5ccf33371b762dc55cbd5",
    7: "485afb71840e2cfec16bfbbd9b76418f1a108d6b0d5ddd7e4a6e54e0362a9e8d",
    8: "9830595a5e7d2ba138a8069eb4bbd263df1bb2c681bf3e76e01f5f01efb57d4b",
    9: "9fa238664400eea81f042b0c7c36437eb7b937b8dee5c3df6c0e1539443ae0cd",
    10: "685d0c62f534b5898d3359df35aa56a87caef0a2b998c1039d505fd5fc63b596",
    11: "7ee7e8ae22f60614dccdccb973d2beb03860a221ed9f936453fa32f70a367457",
    12: "c68193079b2c9fd8b073b8fe773c555c61849e89b7d75ab7a4ef5ce545513408",
    16: "d5a927af074790cd0efb26b233ed0367b4fbf8d37c535fb6d6b858b74168e557",
}


@pytest.mark.parametrize("m", sorted(OPTIMAL_PAIR_SHA256))
def test_optimal_subsets_golden(m):
    masks = json.dumps([s.mask for s in zm_optimal_subsets(m, 2)])
    assert hashlib.sha256(masks.encode()).hexdigest() == OPTIMAL_PAIR_SHA256[m]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(2, 9))
def test_optimal_subsets_against_brute_force(m, n):
    assert [s.mask for s in zm_optimal_subsets(m, n)] == zm_optimal_bf(m, n)


@pytest.mark.parametrize("m", range(2, 9))
def test_optimal_weights_against_brute_force(m):
    want = tuple(n for n in range(2, 6) if zm_optimal_bf(m, n))
    assert optimal_weight_set(m, 5).n_values == want


def test_optimal_scan_guard_builds_no_table(monkeypatch):
    # refused before the builder is reached (calling None would raise TypeError)
    monkeypatch.setattr(finite_ring, "_zm_tables", None)
    guard = r"^subset scan over 2\^17 masks exceeds the 2\^16 guard$"
    for call in (lambda: zm_optimal_subsets(17, 2), lambda: optimal_weight_set(17, 3)):
        with pytest.raises(ValueError, match=guard):
            call()
    with pytest.raises(ValueError, match="fold count must be >= 1, got 0"):
        zm_optimal_subsets(4, 0)
    assert optimal_weight_set(17, 1).n_values == ()  # no fold count to scan


def test_optimal_subsets_mod6():
    target = Z(6, [0, 2])
    for n in range(2, 6):
        assert any(b.mask == target.mask for b in zm_optimal_subsets(6, n))
    w = optimal_weight_set(6, 5)
    assert w.n_values == (2, 3, 4, 5)
    assert w.degree == 4
    assert w.n_max == 5  # reported for the scanned range only


def test_reducible_closed_sets_are_not_optimal():
    full = Z(6, range(6))
    assert zm_closure(full).mask == full.mask
    assert zm_reduction_family(full, 2).reducible
    assert all(b.mask != full.mask for b in zm_optimal_subsets(6, 2))


def test_unit_groups():
    r3 = zm_unit_group_check(3)
    assert len(r3.units) == 2
    assert r3.small_group_irreducible is True
    r8 = zm_unit_group_check(8)
    assert r8.all_or_nothing
    r2 = zm_unit_group_check(2)
    assert r2.small_group_irreducible is True
    for m in range(2, 25):
        assert zm_unit_group_check(m).all_or_nothing, m


def test_quotient_check():
    b, c = Z(8, [0, 2, 4]), Z(8, [0, 2])
    q = zm_quotient_check(8, 4, b, c, 3)
    assert q.preserved
    q = zm_quotient_check(8, 8, b, c, 3)  # identity map
    assert q.preserved
    q = zm_quotient_check(6, 3, Z(6, [0, 2]), Z(6, [0, 2]), 2)
    assert q.preserved  # equal sets are trivially preserved
    with pytest.raises(ValueError):
        zm_quotient_check(8, 3, b, c, 3)
    with pytest.raises(ValueError):
        zm_quotient_check(8, 4, b, c, 2)  # the source relation fails at fold 2


def test_integer_sourced_quotient():
    # a finite integer configuration pushed through reduction mod 8
    ints_b = [9, 15, 17, 25]
    ints_c = [9, 15, 17]
    b8 = Z(8, ints_b)
    c8 = Z(8, ints_c)
    r = zm_relation(b8, c8, 2, 2)
    if r.directed:
        assert zm_quotient_check(8, 4, b8, c8, 2).preserved


def test_sandwich_exhaustive_small():
    # a directed relation squeezes through every intermediate set
    for m in (4, 6, 8):
        for b_mask in range(1, 1 << m):
            b = ZmSubset(m, b_mask)
            for c in zm_reduction_family(b, 2).members:
                free = b_mask & ~c.mask
                sub = free
                while True:
                    d = ZmSubset(m, c.mask | sub)
                    assert zm_relation(b, d, 2, 2).directed, (m, b_mask, c.mask, sub)
                    assert zm_relation(d, c, 2, 2).directed, (m, b_mask, c.mask, sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & free


def test_monogenic_antisymmetry():
    # cyclically generated subsets: mutual symmetric relations force equality
    for m in range(2, 13):
        gens = {}
        for a in range(m):
            seen = []
            x = a
            while x not in seen:
                seen.append(x)
                x = x * a % m
            gens[a] = ZmSubset.from_elements(m, seen)
        for n in (2, 3):
            for a, sa in gens.items():
                for b, sb in gens.items():
                    if sa.mask == sb.mask:
                        continue
                    fwd = zm_relation(sa, sb, n, n).symmetric
                    bwd = zm_relation(sb, sa, n, n).symmetric
                    assert not (fwd and bwd), (m, n, a, b)


def test_relation_table_rows():
    rows = list(relation_table_rows(4, 2))
    # 15 * 15 subset pairs, 4 fold combinations each
    assert len(rows) == 15 * 15 * 4
    by_key = {
        (r.b.mask, r.c.mask, r.m_fold, r.n_fold): r for r in rows
    }
    swap = by_key[(Z(4, [1]).mask, Z(4, [3]).mask, 2, 2)]
    assert swap.symmetric and not swap.subset
    with pytest.raises(ValueError):
        list(relation_table_rows(12, 2))
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max"):
            list(relation_table_rows(4, n_max))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_relation_table_rows_match_zm_relation(m):
    rows = list(relation_table_rows(m, 3))
    subsets = range(1, 1 << m)
    keys = list(itertools.product(subsets, subsets, range(1, 4), range(1, 4)))
    assert [(r.b.mask, r.c.mask, r.m_fold, r.n_fold) for r in rows] == keys
    for r in rows:
        assert r == zm_relation(r.b, r.c, r.m_fold, r.n_fold)


@functools.cache
def _table_blocks(m):
    blocks = []
    for b_mask, low, equal in relation_table(m, 3):
        # every m_fold falls in one group, and a group's hits come from one set S_{m_fold}(B)
        assert sorted(mf for m_folds, _ in equal for mf in m_folds) == [1, 2, 3]
        assert all(len(hits) == 3 for _, hits in equal)
        cells = {(c, mf, nf) for m_folds, hits in equal for mf in m_folds
                 for nf, cs in enumerate(hits, 1) for c in cs}
        blocks.append((b_mask, low, cells))
    return blocks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_relation_table_blocks_match_zm_relation(data):
    m = data.draw(st.integers(6, 10))
    b, c = (data.draw(st.integers(1, (1 << m) - 1)) for _ in range(2))
    m_fold, n_fold = (data.draw(st.integers(1, 3)) for _ in range(2))
    b_mask, low, cells = _table_blocks(m)[b - 1]
    want = zm_relation(ZmSubset(m, b), ZmSubset(m, c), m_fold, n_fold)
    assert b_mask == b
    assert len(low) == 1 << m
    got = ((c, m_fold, n_fold) in cells, low[c] >> 1 == 1, low[c] & 1 == 1)
    assert got == (want.sumset_equal, want.fp, want.subset)


def test_relation_table_row_guard():
    # refused at the call, before any table is built
    for m, n_max in ((8, 40), (2, 1_000_000), (10, 10)):
        with pytest.raises(ValueError, match=f"exceeds the bound {MAX_TABLE_ROWS} rows"):
            relation_table(m, n_max)
    # accepted without being iterated: 9.4 M and 84.8 M rows
    for m, n_max in ((10, 3), (10, 9)):
        assert ((1 << m) - 1) ** 2 * n_max**2 <= MAX_TABLE_ROWS
        relation_table(m, n_max)
