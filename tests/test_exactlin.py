"""Exact scalars, sparse linear combinations, and rational elimination.

The dense Gauss-Jordan elimination below is the oracle of the sparse
fraction-free elimination in `exactlin`: both must give the same pivots,
rank, kernel basis (order and coefficients) and inverse.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge.exactlin import (
    LinComb,
    LinMap,
    SingularMapError,
    _back_substitute,
    _rref,
    rational_from_str,
    rational_str,
)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


@given(rationals, rationals, rationals)
@settings(max_examples=500, deadline=None)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_rational_wire_format():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-4, 2)) == "-2"
    assert rational_str(5) == "5"
    assert rational_from_str("7/3") == Fraction(7, 3)
    assert rational_from_str("-2") == Fraction(-2)


def test_lincomb_operations():
    v = LinComb({"a": 1, "b": Fraction(1, 2)})
    assert v + (-1) * v == LinComb()
    assert not (v - v)
    assert 2 * v == LinComb({"a": 2, "b": 1})
    assert v["a"] == 1 and v["missing"] == 0
    assert LinComb({"a": 0}) == LinComb()
    w = LinComb.term("a", Fraction(2))
    assert (v + w)["a"] == 3
    assert set(v.support()) == {"a", "b"}


def test_pairing_dual_bases():
    h = LinComb.term("x")
    m = LinComb.term("x")
    other = LinComb.term("y")
    assert m.pair(h) == 1
    assert other.pair(h) == 0
    assert LinComb({"x": 2, "y": 3}).pair(LinComb({"x": Fraction(1, 2), "y": 1})) == 4


def test_linmap_identity_and_rank():
    basis = tuple("abcde")
    ident = LinMap.identity(basis)
    assert ident.rank() == 5
    assert ident.compose(ident) == ident
    dup = LinMap(("x", "y"), basis, {"x": LinComb.term("a"), "y": LinComb.term("a")})
    assert dup.rank() == 1
    assert len(dup.kernel_basis()) == 1


def test_kernel_vectors_are_reduced_and_annihilated():
    rng = random.Random(3)
    for trial in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        dom = tuple(range(ncols))
        cod = tuple(range(nrows))
        cols = {
            j: LinComb({i: Fraction(rng.randint(-3, 3)) for i in cod})
            for j in dom
        }
        lm = LinMap(dom, cod, cols)
        kb = lm.kernel_basis()
        assert lm.rank() + len(kb) == ncols
        for v in kb:
            assert not lm(v)
        # reduced echelon: each vector has a unit coordinate on a distinct
        # free column that the others avoid
        frees = []
        for v in kb:
            units = [k for k, c in v.terms.items() if c == 1]
            assert units
            frees.append(max(units))
        assert len(set(frees)) == len(frees)


def test_invert_round_trip_and_singular_error():
    dom = ("u", "v")
    m = LinMap(dom, dom, {
        "u": LinComb({"u": 1, "v": 2}),
        "v": LinComb({"u": Fraction(1, 3)}),
    })
    inv = m.invert()
    assert inv.compose(m) == LinMap.identity(dom)
    assert m.compose(inv) == LinMap.identity(dom)
    sing = LinMap(dom, dom, {"u": LinComb.term("u"), "v": LinComb.term("u", 7)})
    with pytest.raises(SingularMapError) as err:
        sing.invert()
    assert err.value.rank == 1


def test_compose_is_bilinear():
    rng = random.Random(11)
    dom = tuple(range(3))
    for _ in range(30):
        def rand_map():
            return LinMap(dom, dom, {
                j: LinComb({i: Fraction(rng.randint(-2, 2)) for i in dom})
                for j in dom
            })
        f, g, h = rand_map(), rand_map(), rand_map()
        assert (f + g).compose(h) == f.compose(h) + g.compose(h)
        assert h.compose(f + g) == h.compose(f) + h.compose(g)
        assert f.compose(g).rank() <= min(f.rank(), g.rank())


def test_transpose():
    lm = LinMap(("a", "b"), ("x",), {
        "a": LinComb.term("x", 2),
        "b": LinComb.term("x", -1),
    })
    t = lm.transpose()
    assert t.domain == ("x",) and t.codomain == ("a", "b")
    assert t("x") == LinComb({"a": 2, "b": -1})


def test_basis_mismatch_errors():
    a = LinMap.identity(("a",))
    b = LinMap.identity(("b",))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.compose(b)
    with pytest.raises(ValueError):
        LinMap(("a",), ("b",), {"a": LinComb.term("zzz")})


# ---------------------------------------------------------------------------
# the dense oracle


def dense_rref(rows, limit):
    """Reduced row echelon form of dense Fraction rows in place; returns
    (rows, pivot column list).  Pivots take the first row with a nonzero
    entry in the current column, scanning the columns below `limit`."""
    if not rows:
        return rows, []
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(limit):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_matrix(lm):
    index = {k: i for i, k in enumerate(lm.codomain)}
    rows = [[Fraction(0)] * len(lm.domain) for _ in lm.codomain]
    for j, k in enumerate(lm.domain):
        for key, v in lm.cols[k].terms.items():
            rows[index[key]][j] = v
    return rows


def dense_kernel_basis(lm):
    rows, pivots = dense_rref(dense_matrix(lm), len(lm.domain))
    out = []
    for j in range(len(lm.domain)):
        if j in pivots:
            continue
        vec = {lm.domain[j]: Fraction(1)}
        for r, pc in enumerate(pivots):
            if rows[r][j]:
                vec[lm.domain[pc]] = -rows[r][j]
        out.append(LinComb.wrap(vec))
    return out


def dense_invert(lm):
    n = len(lm.domain)
    if len(lm.codomain) != n:
        raise SingularMapError(len(dense_rref(dense_matrix(lm), n)[1]))
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(dense_matrix(lm))]
    reduced, pivots = dense_rref(aug, n)
    if len(pivots) < n:
        raise SingularMapError(len(pivots))
    cols = {}
    for j, k in enumerate(lm.codomain):
        cols[k] = LinComb.wrap({lm.domain[i]: reduced[i][n + j]
                                for i in range(n) if reduced[i][n + j]})
    return LinMap(lm.codomain, lm.domain, cols)


def _inverse_or_rank(invert, lm):
    try:
        inv = invert(lm)
    except SingularMapError as err:
        return err.rank
    return [(k, list(inv.cols[k].terms.items())) for k in inv.domain]


def assert_matches_dense(columns, nrows):
    """`columns[j][i]` is the entry in row i of column j."""
    dom = tuple(f"x{j}" for j in range(len(columns)))
    cod = tuple(f"y{i}" for i in range(nrows))
    lm = LinMap(dom, cod, {dom[j]: LinComb({cod[i]: v for i, v in enumerate(col)})
                           for j, col in enumerate(columns)})
    dense = dense_matrix(lm)
    sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
    echelon, pivots = _rref(sparse_rows, len(dom))
    reduced, dense_pivots = dense_rref([row[:] for row in dense], len(dom))
    assert pivots == dense_pivots
    assert _back_substitute(echelon, pivots) == [
        {j: v for j, v in enumerate(row) if v} for row in reduced[:len(pivots)]]
    assert lm.rank() == len(dense_pivots)
    assert ([list(v.terms.items()) for v in lm.kernel_basis()]
            == [list(v.terms.items()) for v in dense_kernel_basis(lm)])
    assert _inverse_or_rank(LinMap.invert, lm) == _inverse_or_rank(dense_invert, lm)
    assert_image_basis(lm)
    assert lm.image_basis() == [dom[j] for j in dense_pivots]


def assert_image_basis(lm):
    """The image basis is independent (the map restricted to it has full
    rank) and spans the image (that rank is the map's)."""
    image = lm.image_basis()
    restricted = LinMap(image, lm.codomain, {k: lm.cols[k] for k in image})
    assert restricted.rank() == len(image) == lm.rank()


entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 7), Fraction(2, 3)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def matrices(draw):
    """(columns, nrows): square (often singular) or not, with repeated
    columns, and zero rows and columns."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(0, 6))
    columns = []
    for j in range(ncols):
        if columns and draw(st.integers(0, 4)) == 0:
            columns.append(list(columns[draw(st.integers(0, j - 1))]))
        else:
            columns.append(draw(st.lists(entries, min_size=nrows, max_size=nrows)))
    if nrows and draw(st.booleans()):
        zero = draw(st.integers(0, nrows - 1))
        for col in columns:
            col[zero] = 0
    return columns, nrows


@given(matrices())
@settings(max_examples=400, deadline=None)
def test_sparse_elimination_matches_dense_oracle(matrix):
    assert_matches_dense(*matrix)


@pytest.mark.parametrize("columns,nrows", [
    ([], 0),                                        # empty domain and codomain
    ([], 3),                                        # empty domain
    ([[], []], 0),                                  # empty codomain
    ([[0, 0], [0, 0]], 2),                          # zero map
    ([[1, 0, 2], [0, 0, 0], [3, 0, 1]], 3),         # a zero row and a zero column
    ([[1, 2], [1, 2], [0, 1]], 2),                  # duplicate columns
    ([[1, 2, 3], [4, 5, 6]], 3),                    # non-square, tall
    ([[1, 2], [3, 4], [5, 6]], 2),                  # non-square, wide
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3),         # singular square
    ([[Fraction(1, 7), Fraction(2, 3)], [Fraction(2, 3), -1]], 2),
    ([[Fraction(1, 7), Fraction(2, 7)], [Fraction(2, 3), Fraction(4, 3)]], 2),
])
def test_sparse_elimination_matches_dense_on_edge_cases(columns, nrows):
    assert_matches_dense(columns, nrows)


def test_image_basis_keeps_the_first_of_equal_columns():
    dom, cod = ("a", "b", "c", "d"), ("y0", "y1")
    col = LinComb({"y0": 1, "y1": Fraction(2, 3)})
    lm = LinMap(dom, cod, {"a": LinComb(), "b": col, "c": col.scale(3), "d": col})
    assert lm.image_basis() == ["b"]
    assert LinMap.zero(dom, cod).image_basis() == []
    assert LinMap.zero((), cod).image_basis() == []
