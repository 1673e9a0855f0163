"""Exact rational scalars and sparse linear algebra over opaque basis keys.

Scalars are `fractions.Fraction` (always reduced, positive denominator).
A LinComb is a sparse map from hashable basis keys to nonzero coefficients;
a LinMap stores its columns as LinCombs over an explicit ordered codomain
basis.  Rank, kernels and inverses come from sparse fraction-free
elimination: each matrix row is a dict over its nonzero columns, cleared of
denominators and reduced to echelon form in integers, every row kept
primitive (divided by the gcd of its entries).  Only kernels and inverses
back-substitute, and only their final rows become Fractions.  The reduced
row echelon form of a matrix is unique, so kernels and inverses do not
depend on the order in which rows are eliminated.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Rational", "rational_str", "rational_from_str",
    "LinComb", "LinMap", "SingularMapError", "tensor",
]

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_str(x):
    """JSON wire form: "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s):
    return Fraction(s)


class SingularMapError(ValueError):
    def __init__(self, rank):
        super().__init__(f"map is singular (rank {rank})")
        self.rank = rank


class LinComb:
    """Sparse linear combination; `terms` maps keys to nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v if type(v) is Fraction else Fraction(v)
                          for k, v in dict(terms).items() if v}

    @classmethod
    def term(cls, key, coef=ONE):
        lc = cls.__new__(cls)
        if type(coef) is not Fraction:
            coef = Fraction(coef)
        lc.terms = {key: coef} if coef else {}
        return lc

    @classmethod
    def wrap(cls, terms):
        """Adopt an already-clean dict without copying."""
        lc = cls.__new__(cls)
        lc.terms = terms
        return lc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LinComb):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, key):
        return self.terms.get(key, ZERO)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, ZERO) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return LinComb.wrap(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, ZERO) - v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return LinComb.wrap(out)

    def __neg__(self):
        return LinComb.wrap({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return LinComb.wrap({})
        return LinComb.wrap({k: c * v for k, v in self.terms.items()})

    __rmul__ = scale

    def __mul__(self, c):
        return self.scale(c)

    def support(self):
        return set(self.terms)

    def pair(self, other):
        """Evaluate self (a functional on the dual basis) against other."""
        if len(self.terms) > len(other.terms):
            self, other = other, self
        return sum((v * other.terms.get(k, ZERO) for k, v in self.terms.items()), ZERO)

    def map_keys(self, fn):
        """Push forward along key -> key."""
        out = {}
        for k, v in self.terms.items():
            img = fn(k)
            w = out.get(img, ZERO) + v
            if w:
                out[img] = w
            else:
                del out[img]
        return LinComb.wrap(out)

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = [f"{v}*{k!r}" for k, v in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return "LinComb(" + " + ".join(bits) + ")"


def lc_sum(items):
    out = {}
    for lc in items:
        for k, v in lc.terms.items():
            w = out.get(k, ZERO) + v
            if w:
                out[k] = w
            else:
                del out[k]
    return LinComb.wrap(out)


def integral(terms):
    """(d, ints): d is the lcm of the denominators of the rational values
    of `terms`, and `ints` maps each key to its value times d, an int."""
    d = lcm(*(v.denominator for v in terms.values()))
    return d, {k: v.numerator * (d // v.denominator) for k, v in terms.items()}


def add_part(parts, den, key, num):
    """Accumulate the int `num` on `key` under the denominator `den` in
    `parts` {den: {key: num}}."""
    acc = parts.get(den)
    if acc is None:
        acc = parts[den] = {}
    acc[key] = acc.get(key, 0) + num


def merge_parts(parts):
    """(den, {key: num}): the int numerators accumulated in `parts`
    {den: {key: num}} over one denominator, the lcm of theirs; zeros are
    kept."""
    if len(parts) == 1:
        (den, acc), = parts.items()
        return den, acc
    den = lcm(*parts)
    acc = {}
    for e, part in parts.items():
        m = den // e
        for k, v in part.items():
            acc[k] = acc.get(k, 0) + v * m
    return den, acc


def lc_from_parts(parts, d=1):
    """The LinComb of int numerators accumulated per denominator: the sum
    over `parts` {den: {key: num}} of num / (den * d) times key, with one
    Fraction per nonzero coefficient."""
    den, acc = merge_parts(parts)
    total = den * d
    return LinComb.wrap({k: Fraction(v, total) for k, v in acc.items() if v})


def tensor(*lcs):
    """Outer product: a LinComb over key tuples, one key per factor, each
    with the product of its factors' coefficients.  tensor() is the empty
    tuple with coefficient 1."""
    if not lcs:
        return LinComb.term(())
    out = {(k,): v for k, v in lcs[0].terms.items()}
    for lc in lcs[1:]:
        out = {keys + (k,): c * v for keys, c in out.items() for k, v in lc.terms.items()}
    return LinComb.wrap(out)


class LinMap:
    """Exact linear map between finite ordered bases of opaque keys."""

    __slots__ = ("domain", "codomain", "cols")

    def __init__(self, domain, codomain, cols):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.cols = dict(cols)
        codset = set(self.codomain)
        for k in self.domain:
            img = self.cols.setdefault(k, LinComb())
            if not set(img.terms) <= codset:
                raise ValueError("column image not supported on the codomain basis")

    @classmethod
    def identity(cls, basis):
        return cls(basis, basis, {k: LinComb.term(k) for k in basis})

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, {})

    def __call__(self, x):
        if isinstance(x, LinComb):
            return lc_sum(self.cols[k].scale(v) for k, v in x.terms.items())
        return self.cols[x]

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and all(self.cols[k] == other.cols[k] for k in self.domain)
        )

    def __hash__(self):
        return hash((self.domain, self.codomain))

    def __add__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("basis mismatch in map sum")
        return LinMap(self.domain, self.codomain,
                      {k: self.cols[k] + other.cols[k] for k in self.domain})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return LinMap(self.domain, self.codomain,
                      {k: self.cols[k].scale(c) for k in self.domain})

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("basis mismatch in composition")
        return LinMap(other.domain, self.codomain,
                      {k: self(other.cols[k]) for k in other.domain})

    def _rows(self):
        """Sparse rows {domain index: coefficient}, one per codomain key."""
        index = {k: i for i, k in enumerate(self.codomain)}
        rows = [{} for _ in self.codomain]
        for j, k in enumerate(self.domain):
            for key, v in self.cols[k].terms.items():
                rows[index[key]][j] = v
        return rows

    def transpose(self):
        cols = {k: {} for k in self.codomain}
        for j, k in enumerate(self.domain):
            for key, v in self.cols[k].terms.items():
                cols[key][k] = v
        return LinMap(self.codomain, self.domain,
                      {k: LinComb.wrap(d) for k, d in cols.items()})

    def rank(self):
        return len(self.image_basis())

    def image_basis(self):
        """The domain keys of the pivot columns, in domain order: each
        column that is not in the span of the columns before it.  Their
        columns are a basis of the image."""
        return [self.domain[j] for j in _rref(self._rows(), len(self.domain))[1]]

    def kernel_basis(self):
        """Reduced-echelon basis of the kernel, as LinCombs over the domain."""
        n = len(self.domain)
        rows, pivots = _rref(self._rows(), n)
        free = set(range(n)).difference(pivots)
        vecs = {j: {self.domain[j]: ONE} for j in sorted(free)}
        for c, row in zip(pivots, _back_substitute(rows, pivots)):
            for j, v in row.items():
                if j != c:
                    vecs[j][self.domain[c]] = -v
        return [LinComb.wrap(vec) for vec in vecs.values()]

    def invert(self):
        n = len(self.domain)
        if len(self.codomain) != n:
            raise SingularMapError(self.rank())
        rows = self._rows()
        for i, row in enumerate(rows):
            row[n + i] = ONE
        rows, pivots = _rref(rows, n)
        if len(pivots) < n:
            raise SingularMapError(len(pivots))
        cols = {k: {} for k in self.codomain}
        for k, row in zip(self.domain, _back_substitute(rows, pivots)):
            for j, v in row.items():
                if j >= n:
                    cols[self.codomain[j - n]][k] = v
        return LinMap(self.codomain, self.domain,
                      {k: LinComb.wrap(d) for k, d in cols.items()})

    def __repr__(self):
        return f"LinMap({len(self.codomain)}x{len(self.domain)})"


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row, p, c):
    """a*row - b*p, made primitive, for the coprime integers a, b that
    clear column c (mutates `row` when a is 1)."""
    g = gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in p.items():
        w = row.get(k, 0) - b * v
        if w:
            row[k] = w
        else:
            del row[k]
    return _primitive(row)


def _rref(rows, limit):
    """Row echelon form of sparse rows over the columns below `limit`.

    Each row is a dict {column: Fraction}.  It is scaled to a primitive
    integer row, then reduced against the pivot rows found so far until its
    leading column is new (it becomes that column's pivot row) or lies at
    or beyond `limit` (it is dropped).  Returns the pivot rows and their
    leading columns, in ascending column order.  These are the pivot
    columns of the reduced row echelon form, which is unique, so they do
    not depend on the order of the rows.
    """
    pivot_rows = {}
    for row in rows:
        if not row:
            continue
        row = _primitive(integral(row)[1])
        while row and (c := min(row)) < limit:
            if c not in pivot_rows:
                pivot_rows[c] = row
                break
            row = _eliminate(row, pivot_rows[c], c)
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _back_substitute(rows, pivots):
    """The reduced row echelon form of the echelon rows from `_rref`.

    Bottom row first, each row loses its entries in the later pivot
    columns, in integers; only the finished rows are divided by their
    leading entries into Fractions.
    """
    done = {}
    for c, row in zip(reversed(pivots), reversed(rows)):
        for k in [k for k in row if k != c and k in done]:
            row = _eliminate(row, done[k], k)
        done[c] = row
    return [{k: Fraction(v, done[c][c]) for k, v in done[c].items()} for c in pivots]
