"""Ground combinatorics: operations, statistics, enumeration, Mobius
function, encodings.  Counting oracles (Bell and ordered Bell recurrences,
brute-force inversion counts) are computed here independently."""

import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge.setcomb import (
    area,
    coarsenings,
    comp_concat,
    comp_factorial,
    comp_opp,
    comp_refines,
    comp_restrict,
    comp_tits,
    compositions_of,
    cyclic_factorial,
    dec_refines,
    dec_restrict,
    dec_tits,
    decode_comp,
    decode_dec,
    decode_partition,
    decompositions_exact,
    decompositions_of,
    dist,
    dist_opp,
    encode_comp,
    encode_dec,
    encode_partition,
    full_mask,
    mask_labels,
    mobius_partition,
    partition_coarsenings,
    partition_join,
    partition_refinements,
    partition_refines,
    partition_sort,
    partitions_of,
    positive_part,
    quasi_shuffles,
    refinements,
    rel_factorial,
    rel_length,
    shuffles,
    splittings,
    submasks,
    support,
)


def bell_oracle(n):
    # recurrence B(n+1) = sum C(n,k) B(k)
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def ordered_bell_oracle(n):
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# ---------------------------------------------------------------------------
# operations


def test_concat():
    assert comp_concat((1,), (2,)) == (1, 2)
    assert comp_concat((3,), (4, 8)) == (3, 4, 8)
    with pytest.raises(ValueError):
        comp_concat((3,), (1,))


def test_concat_empty_decompositions():
    # p empty blocks glued to q empty blocks give p + q empty blocks
    assert comp_concat((0, 0), (0, 0, 0)) == (0,) * 5


def test_restrict():
    assert comp_restrict(decode_comp("01|2"), 0b101) == decode_comp("0|2")
    f = decode_comp("02|13")
    assert comp_restrict(f, 0b1111) == f
    assert comp_restrict(decode_comp("01|2"), 0b011) == decode_comp("01")
    # decomposition variant keeps the empty slots
    assert dec_restrict(decode_comp("01|2"), 0b011) == (0b011, 0)


def test_tits_product_examples():
    f = decode_comp("01|2")
    g = decode_comp("02|1")
    assert comp_tits(f, g) == decode_comp("0|1|2")
    assert comp_opp(f) == decode_comp("2|01")
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = rng.choice(compositions_of(full_mask(n)))
        assert comp_tits(f, f) == f
        assert comp_tits(f, comp_opp(f)) == f


def test_tits_monoid_properties_exhaustive():
    # associative, unital, idempotent, and absorbing on repeated factors
    for n in range(5 + 1):
        comps = compositions_of(full_mask(n))
        unit = (full_mask(n),) if n else ()
        for f in comps:
            assert comp_tits(unit, f) == f
            assert comp_tits(f, unit) == f
            for g in comps:
                fg = comp_tits(f, g)
                assert comp_refines(f, fg)
                assert comp_tits(fg, f) == fg
                if n <= 4:
                    for h in comps:
                        assert comp_tits(fg, h) == comp_tits(f, comp_tits(g, h))


def test_refinement_vs_tits():
    assert comp_refines((7,), decode_comp("0|12"))
    assert comp_refines(decode_comp("01|2"), decode_comp("0|1|2"))
    assert not comp_refines(decode_comp("0|12"), decode_comp("12|0"))
    for n in range(4 + 1):
        comps = compositions_of(full_mask(n))
        for f in comps:
            for g in comps:
                assert comp_refines(f, g) == (comp_tits(f, g) == g)


def test_support_join_and_tits():
    x, y = decode_partition("01.2"), decode_partition("0.1.2")
    assert partition_refines(x, y) and partition_join(x, y) == y
    for n in range(4 + 1):
        comps = compositions_of(full_mask(n))
        for f in comps:
            for g in comps:
                assert support(comp_tits(f, g)) == partition_join(support(f), support(g))
                assert (comp_tits(g, f) == g) == partition_refines(support(f), support(g))


def test_linear_order_absorption():
    for n in range(1, 5):
        comps = compositions_of(full_mask(n))
        chambers = [f for f in comps if len(f) == n]
        for c in chambers:
            for f in comps:
                assert comp_tits(c, f) == c
                assert len(comp_tits(f, c)) == n


def test_statistics():
    f = decode_comp("01|2")
    assert comp_factorial(f) == 2
    assert len(f) == 2
    g = decode_comp("0|1|2")
    assert rel_length(f, g) == 2
    assert rel_factorial(f, g) == 2
    assert rel_factorial((7,), g) == 6
    assert support(f) == decode_partition("01.2")
    assert cyclic_factorial(support(f)) == 1
    assert cyclic_factorial(decode_partition("012")) == 2
    # support preserves lengths and factorials
    for n in range(1, 5):
        for f in compositions_of(full_mask(n)):
            x = support(f)
            assert len(x) == len(f)
            assert comp_factorial(f) == comp_factorial(x)


def test_area_example_and_dist_opp():
    assert area(decode_comp("2|1"), 0b010, 0b100) == 1
    f = decode_comp("0|1|2")
    assert dist(f, comp_opp(f)) == 3
    assert dist_opp(f) == 3
    # dist between decompositions ignores the empty slots
    f = (1, 0, 2, 4)
    g = (4, 2, 0, 1)
    assert dist(f, g) == dist(positive_part(f), positive_part(g))


def test_area_cocycle_identities():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 6)
        full = full_mask(n)
        comps = compositions_of(full)
        ell = rng.choice([f for f in comps if len(f) == n])
        r = rng.randint(0, full)
        s = rng.randint(0, full) & ~r
        t = full & ~r & ~s
        lhs = area(ell, r, s | t) + area(comp_restrict(ell, s | t), s, t)
        rhs = area(ell, r | s, t) + area(comp_restrict(ell, r | s), r, s)
        assert lhs == rhs
        # multiplicativity over a concatenation
        s1 = rng.randint(0, full)
        s2 = full ^ s1
        l1 = comp_restrict(ell, s1)
        l2 = comp_restrict(ell, s2)
        t1 = rng.randint(0, full)
        t2 = full ^ t1
        a, b = s1 & t1, s1 & t2
        c, d = s2 & t1, s2 & t2
        lhs = area(comp_concat(l1, l2), t1, t2)
        rhs = area(l1, a, b) + area(l2, c, d) + bin(b).count("1") * bin(c).count("1")
        assert lhs == rhs


def test_positive_part_commutes():
    decs3 = [d for d in decompositions_of(full_mask(3), 3)]
    for f in decs3:
        for smask in (0b101, 0b011):
            assert positive_part(dec_restrict(f, smask)) == comp_restrict(positive_part(f), smask)
        for g in decs3:
            assert positive_part(dec_tits(f, g)) == comp_tits(positive_part(f), positive_part(g))
    a = [d for d in decompositions_of(0b0011, 2)]
    b = [d for d in decompositions_of(0b1100, 2)]
    for f in a:
        for g in b:
            assert positive_part(f + g) == positive_part(f) + positive_part(g)


def test_positive_part_example():
    assert positive_part((1, 0, 2)) == (1, 2)
    assert encode_comp(positive_part(decode_dec("01||2"))) == "01|2"


# ---------------------------------------------------------------------------
# Mobius function


def test_mobius_examples():
    bottom = (full_mask(3),)
    x = tuple(partitions_of(full_mask(3)))[-1]
    assert len(x) == 3
    assert mobius_partition(bottom, x) == 2
    assert mobius_partition(x, x) == 1
    with pytest.raises(ValueError):
        mobius_partition(x, bottom)


def test_mobius_closed_form_specializations():
    for n in range(1, 6):
        bottom = (full_mask(n),)
        top = tuple(1 << i for i in range(n))
        for x in partitions_of(full_mask(n)):
            lx = len(x)
            assert mobius_partition(bottom, x) == (-1) ** (lx - 1) * factorial(lx - 1)
            cyc = 1
            for b in x:
                cyc *= factorial(bin(b).count("1") - 1)
            assert mobius_partition(x, top) == (-1) ** (n - lx) * cyc


def test_mobius_recurrence_all_intervals():
    for n in range(1, 6):
        parts = partitions_of(full_mask(n))
        for x in parts:
            finer = partition_refinements(x)
            for y in finer:
                if x == y:
                    continue
                total = sum(mobius_partition(x, z)
                            for z in finer if partition_refines(z, y))
                assert total == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    for n in range(7):
        assert len(partitions_of(full_mask(n))) == bell_oracle(n)
        if n <= 5:
            assert len(compositions_of(full_mask(n))) == ordered_bell_oracle(n)
    assert len(decompositions_exact(full_mask(2), 3)) == 9
    assert len(decompositions_of(full_mask(0), 4)) == 5
    for n in range(4):
        for k in range(4):
            assert len(decompositions_exact(full_mask(n), k)) == (k ** n if n else (1 if k >= 0 else 0)) or n == 0


def test_enumeration_no_duplicates_and_stable():
    for n in range(5):
        comps = compositions_of(full_mask(n))
        assert len(set(comps)) == len(comps)
        assert comps == compositions_of(full_mask(n))
        parts = partitions_of(full_mask(n))
        assert len(set(parts)) == len(parts)


def test_refinements_and_coarsenings():
    f = decode_comp("01|2")
    refs = refinements(f)
    assert set(refs) == {g for g in compositions_of(full_mask(3)) if comp_refines(f, g)}
    for n in range(4 + 1):
        for g in compositions_of(full_mask(n)):
            co = coarsenings(g)
            assert len(co) == 2 ** max(0, len(g) - 1)
            assert set(co) == {f for f in compositions_of(full_mask(n)) if comp_refines(f, g)}


def test_partition_refinements_and_coarsenings():
    x = decode_partition("01.2")
    assert set(partition_refinements(x)) == {
        y for y in partitions_of(full_mask(3)) if partition_refines(x, y)}
    assert set(partition_coarsenings(x)) == {
        y for y in partitions_of(full_mask(3)) if partition_refines(y, x)}


def test_quasi_shuffles_and_shuffles():
    qs = quasi_shuffles((1,), (2,))
    assert set(qs) == {(1, 2), (2, 1), (3,)}
    # quasi-shuffles are exactly the compositions restricting to both factors
    f, g = decode_comp("0|1"), decode_comp("23")
    got = set(quasi_shuffles(f, g))
    brute = {h for h in compositions_of(full_mask(4))
             if comp_restrict(h, 0b0011) == f and comp_restrict(h, 0b1100) == g}
    assert got == brute
    # shuffles of linear orders: binomial count
    l1 = (1,)
    l2 = (2, 4)
    assert len(shuffles(l1, l2)) == comb(3, 1)
    for a, b in [(2, 2), (3, 1), (1, 3)]:
        la = tuple(1 << i for i in range(a))
        lb = tuple(1 << (a + i) for i in range(b))
        assert len(shuffles(la, lb)) == comb(a + b, a)


@pytest.mark.parametrize("n", range(6))
def test_shuffles_are_the_unmerged_quasi_shuffles(n):
    # brute force: every composition h of [n] restricts to a pair (f, g) on
    # (S, complement); it is a shuffle of that pair iff no block meets both
    full = full_mask(n)
    want = {}
    for S in submasks(full):
        T = full ^ S
        for h in compositions_of(full):
            if all(b & S == 0 or b & T == 0 for b in h):
                want.setdefault((comp_restrict(h, S), comp_restrict(h, T)), set()).add(h)
    for S in submasks(full):
        for f in compositions_of(S):
            for g in compositions_of(full ^ S):
                got = shuffles(f, g)
                assert len(got) == len(set(got))
                assert set(got) == want[(f, g)]


def test_splittings():
    # fibers of concatenation over a refinement pair
    f = (0b011, 0b100)
    g = (0b001, 0b010, 0b100)
    assert splittings(f, g) == (((0b001, 0b010), (0b100,)),)
    # empty blocks make splittings non-unique
    f = (0, 0)
    g = (0,)
    assert len(splittings(f, g)) == 2
    assert dec_refines((0,) * 2, (0,) * 3)
    assert dec_refines((0,), ())
    assert not dec_refines((), (0,))
    for f in decompositions_of(full_mask(2), 2):
        for g in decompositions_of(full_mask(2), 3):
            ok = any(True for _ in splittings(f, g))
            concats = set()
            per_block = [decompositions_of(b, 3) for b in f]
            for choice in itertools.product(*per_block):
                acc = ()
                for part in choice:
                    acc += part
                concats.add(acc)
            assert ok == (g in concats)


# ---------------------------------------------------------------------------
# encodings


def test_encodings_round_trip():
    for s in ("", "01|2", "0|1|2", "012"):
        assert encode_comp(decode_comp(s)) == s
    assert encode_partition(decode_partition("01.2")) == "01.2"
    assert decode_dec("01||2") == (0b011, 0, 0b100)
    assert encode_dec((0b011, 0, 0b100)) == "01||2"
    # all-empty decompositions keep their block count
    for p in range(4):
        assert decode_dec(encode_dec((0,) * p)) == (0,) * p


def test_encoding_sorted_within_blocks():
    assert encode_comp(((1 << 3) | 1,)) == "03"
    assert encode_partition(partition_sort([0b100, 0b011])) == "01.2"


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_tits_left_regular_band_property(n, rng):
    comps = compositions_of(full_mask(n))
    f = rng.choice(comps)
    g = rng.choice(comps)
    fg = comp_tits(f, g)
    assert comp_tits(comp_tits(f, g), f) == fg
    assert comp_tits(f, f) == f
