"""Oracle tests for the bitmask kernel: every function must agree with a
definition written on label sets, or with direct definition-level counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge import kernels


def random_comp(rng, n, allow_empty=False):
    labels = list(range(n))
    rng.shuffle(labels)
    k = rng.randint(1, max(1, n))
    blocks = [0] * k
    for lab in labels:
        blocks[rng.randrange(k)] |= 1 << lab
    if not allow_empty:
        blocks = [b for b in blocks if b]
    return tuple(blocks)


def brute_area(comp, smask, tmask):
    # pairs (i, j) in S x T with i in a strictly later block than j
    pos = {}
    for idx, b in enumerate(comp):
        m = b
        while m:
            low = m & -m
            pos[low.bit_length() - 1] = idx
            m ^= low
    total = 0
    for i in pos:
        for j in pos:
            if (smask >> i) & 1 and (tmask >> j) & 1 and pos[i] > pos[j]:
                total += 1
    return total


def brute_dist(f, g):
    posf, posg = {}, {}
    for pos, comp in ((posf, f), (posg, g)):
        for idx, b in enumerate(comp):
            m = b
            while m:
                low = m & -m
                pos[low.bit_length() - 1] = idx
                m ^= low
    total = 0
    for i in posf:
        for j in posf:
            if posf[i] < posf[j] and posg[i] > posg[j]:
                total += 1
    return total


def labels(mask):
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def as_sets(comp):
    return tuple(labels(b) for b in comp)


def set_tits(f, g, keep_empty=False):
    # blocks B & C for B in f, then C in g, in that order
    return tuple(b & c for b in f for c in g if keep_empty or b & c)


def set_restrict(f, s, keep_empty=False):
    return tuple(b & s for b in f if keep_empty or b & s)


def set_permute(b, perm):
    return frozenset(perm[i] for i in b)


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_random_inputs(seed):
    """The bitmask kernel agrees with the label-set definitions."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(0, 7)
        full = (1 << n) - 1
        f = random_comp(rng, n)
        g = random_comp(rng, n)
        s = rng.randint(0, full)
        t = full ^ s
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        F, G, S = as_sets(f), as_sets(g), labels(s)
        assert as_sets(kernels.comp_tits(f, g)) == set_tits(F, G)
        assert as_sets(kernels.dec_tits(f, g)) == set_tits(F, G, keep_empty=True)
        assert as_sets(kernels.comp_restrict(f, s)) == set_restrict(F, S)
        assert as_sets(kernels.dec_restrict(f, s)) == set_restrict(F, S, keep_empty=True)
        assert kernels.comp_refines(f, g) == (set_tits(F, G) == G)
        assert kernels.comp_refines(f, kernels.comp_tits(f, g))
        assert as_sets(kernels.comp_permute(f, perm)) == tuple(set_permute(b, perm) for b in F)
        assert labels(kernels.mask_permute(s, perm)) == set_permute(S, perm)
        fg, gf, tp = kernels.tits_perm(f, g)
        assert as_sets(fg) == set_tits(F, G)
        assert as_sets(gf) == set_tits(G, F)
        assert sorted(tp) == list(range(len(fg)))
        assert all(fg[a] == gf[tp[a]] for a in range(len(fg)))
        assert kernels.area(f, s, t) == brute_area(f, s, t)
        assert kernels.dist(f, g) == brute_dist(f, g)
        assert kernels.dist_opp(f) == brute_dist(f, tuple(reversed(f)))


def test_area_and_dist_match_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(0, 6)
        full = (1 << n) - 1
        f = random_comp(rng, n)
        g = random_comp(rng, n)
        s = rng.randint(0, full)
        assert kernels.area(f, s, full ^ s) == brute_area(f, s, full ^ s)
        assert kernels.dist(f, g) == brute_dist(f, g)
        assert kernels.dist_opp(f) == brute_dist(f, tuple(reversed(f)))


def test_tits_product_definition():
    f = (0b011, 0b100)
    g = (0b101, 0b010)
    assert kernels.comp_tits(f, g) == (0b001, 0b010, 0b100)
    assert kernels.dec_tits(f, g) == (0b001, 0b010, 0b100, 0b000)
    fg, gf, perm = kernels.tits_perm(f, g)
    assert fg == (0b001, 0b010, 0b100)
    assert gf == (0b001, 0b100, 0b010)
    assert tuple(fg[i] for i in range(len(fg))) == tuple(gf[perm[i]] for i in range(len(fg)))


@given(st.integers(min_value=0, max_value=2 ** 12 - 1),
       st.permutations(list(range(12))))
@settings(max_examples=200, deadline=None)
def test_mask_permute_is_action(mask, perm):
    perm = tuple(perm)
    out = kernels.mask_permute(mask, perm)
    assert out.bit_count() == mask.bit_count()
    assert kernels.mask_permute(out, _inverse(perm)) == mask


def _inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)
