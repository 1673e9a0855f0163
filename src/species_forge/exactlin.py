"""Exact rational scalars and sparse linear algebra over opaque basis keys.

Scalars are `fractions.Fraction` (always reduced, positive denominator).
A LinComb is a sparse map from hashable basis keys to nonzero coefficients;
a LinMap stores its columns as LinCombs over an explicit ordered codomain
basis.  Elimination is plain fraction arithmetic with deterministic pivoting
(first nonzero entry, ties broken by basis order), so kernels and inverses
are reproducible.
"""

from fractions import Fraction

__all__ = [
    "Rational", "rational_str", "rational_from_str",
    "LinComb", "LinMap", "SingularMapError",
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
            self.terms = {k: Fraction(v) for k, v in dict(terms).items() if v}

    @classmethod
    def term(cls, key, coef=1):
        lc = cls.__new__(cls)
        coef = Fraction(coef)
        lc.terms = {key: coef} if coef else {}
        return lc

    @classmethod
    def wrap(cls, terms):
        """Adopt an already-clean dict without copying."""
        lc = cls.__new__(cls)
        lc.terms = terms
        return lc

    zero = classmethod(lambda cls: cls.wrap({}))

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
        """Push forward along key -> LinComb (or key -> key)."""
        out = {}
        for k, v in self.terms.items():
            img = fn(k)
            if isinstance(img, LinComb):
                for k2, v2 in img.terms.items():
                    w = out.get(k2, ZERO) + v * v2
                    if w:
                        out[k2] = w
                    else:
                        del out[k2]
            else:
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

    def matrix(self):
        """Row-major entries, rows indexed by codomain, columns by domain."""
        index = {k: i for i, k in enumerate(self.codomain)}
        rows = [[ZERO] * len(self.domain) for _ in self.codomain]
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
        return len(_rref(self.matrix())[1])

    def kernel_basis(self):
        """Reduced-echelon basis of the kernel, as LinCombs over the domain."""
        rows, pivots = _rref(self.matrix())
        ncols = len(self.domain)
        pivot_cols = set(pivots)
        free = [j for j in range(ncols) if j not in pivot_cols]
        out = []
        for j in free:
            vec = {self.domain[j]: ONE}
            for r, pc in enumerate(pivots):
                v = rows[r][j]
                if v:
                    vec[self.domain[pc]] = -v
            out.append(LinComb.wrap(vec))
        return out

    def invert(self):
        n = len(self.domain)
        if len(self.codomain) != n:
            raise SingularMapError(self.rank())
        rows = self.matrix()
        aug = [rows[i] + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        reduced, pivots = _rref(aug, limit=n)
        if len(pivots) < n:
            raise SingularMapError(len(pivots))
        cols = {}
        for j, k in enumerate(self.codomain):
            vec = {}
            for i in range(n):
                v = reduced[i][n + j]
                if v:
                    vec[self.domain[i]] = v
            cols[k] = LinComb.wrap(vec)
        return LinMap(self.codomain, self.domain, cols)

    def __repr__(self):
        return f"LinMap({len(self.codomain)}x{len(self.domain)})"


def _rref(rows, limit=None):
    """Reduced row echelon form in place; returns (rows, pivot column list).

    Pivots take the first row with a nonzero entry in the current column,
    scanning columns left to right (deterministic by construction).
    """
    if not rows:
        return rows, []
    nrows = len(rows)
    ncols = len(rows[0]) if limit is None else limit
    pivots = []
    r = 0
    for c in range(ncols):
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
