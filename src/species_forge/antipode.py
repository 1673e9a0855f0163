"""Antipodes three ways: the universal alternating sum over compositions
(Takeuchi), the one-sided recursions (Milnor-Moore), and per-model
cancellation-free closed forms, plus the convolution-identity verifier.

The alternating sum is the reference oracle: it is defined uniformly from
the structure maps alone, so the closed forms are tested against it.  It is
the characteristic operation of the Tits element h_power(-1, n), and the
recursions are the convolution identities solved one degree at a time, so
neither carries a loop of its own.
"""

from fractions import Fraction
from math import comb

from . import graphs
from .exactlin import ONE, ZERO, LinComb, LinMap
from .kernels import dist_opp, popcount
from .setcomb import (
    comp_opp,
    full_mask,
    partition_refinements,
    partition_rel_factorial,
    refinements,
)
from .species import NotHopfError, convolve, identity_family, unit_family
from .titsops import characteristic_op, h_power, psi_map

METHODS = ("takeuchi", "mm-left", "mm-right", "closed")


def _require_hopf(model):
    if not model.connected:
        raise NotHopfError(f"{model.name} is not connected, so it has no antipode")


def takeuchi_column(model, n, key):
    """The alternating sum over all compositions applied to one basis key:
    the characteristic operation of h_power(-1, n)."""
    return characteristic_op(model, h_power(-1, n), LinComb.term(key))


def _takeuchi_map(model, n):
    return psi_map(model, h_power(-1, n), n)


def _closed_map(model, n):
    basis = model.basis(n)
    return LinMap(basis, basis, {k: closed_form(model, k, n) for k in basis})


def _mm_map(model, n, lowers, sides, idf, transports):
    """One Milnor-Moore step at degree n for each side ("mm-left" or
    "mm-right"), given each side's maps of lower degrees; one convolve call
    serves every side.

    id * S = u.e vanishes in positive degree, and its term that puts the
    whole set under the antipode is S_n itself.  So S_n = -(id * S') for the
    right recursion and -(S' * id) for the left one, where S' extends the
    lower maps by the zero map at degree n.  `idf` is the identity family
    and `transports` the transport dict of convolve, both kept by the caller
    across the degrees of the recursion.
    """
    basis = model.basis(n)
    if n == 0:
        return [LinMap.identity(basis) for _ in sides]
    zero = LinMap.zero(basis, basis)
    pairs = []
    for lower, side in zip(lowers, sides):
        ext = {**lower, n: zero}
        pairs.append((idf, ext) if side == "mm-right" else (ext, idf))
    return [conv.scale(-1) for conv in convolve(model, pairs, n, transports)]


def antipode_families(model, nmax, methods):
    """Antipode maps for all degrees 0..nmax by each of `methods`, as a dict
    method -> (degree -> LinMap) in the order of `methods`.  The
    Milnor-Moore recursions run together, one convolution sweep per degree;
    the Takeuchi sum shares nothing with them, as it is their oracle."""
    _require_hopf(model)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown antipode method {method!r}")
    fams = {}
    mm = [m for m in methods if m in ("mm-left", "mm-right")]
    if mm:
        lowers = [{} for _ in mm]
        idf, transports = identity_family(model, nmax), {}
        for m in range(nmax + 1):
            for lower, s in zip(lowers, _mm_map(model, m, lowers, mm, idf, transports)):
                lower[m] = s
        fams.update(zip(mm, lowers))
    for method in methods:
        if method == "takeuchi":
            fams[method] = {m: _takeuchi_map(model, m) for m in range(nmax + 1)}
        elif method == "closed":
            fams[method] = {m: _closed_map(model, m) for m in range(nmax + 1)}
    return {method: fams[method] for method in methods}


def antipode_family(model, nmax, method="takeuchi"):
    """Antipode maps for all degrees 0..nmax as a dict degree -> LinMap."""
    return antipode_families(model, nmax, (method,))[method]


def antipode(model, n, method="takeuchi", basis="H"):
    """The degree-n antipode in the requested basis.

    basis="Q" computes on the Q-basis view of Pi, G, or Sigma (whose keys
    are the same combinatorial objects).
    """
    _require_hopf(model)
    if basis == "Q":
        from .models import q_view

        model = q_view(model)
    elif basis != "H":
        raise ValueError("antipode tables exist in the H and Q bases")
    return antipode_family(model, n, method)[n]


# ---------------------------------------------------------------------------
# closed forms


def _closed_E(model, key, n):
    return LinComb.term(key, Fraction(-1 if popcount(key) % 2 else 1))


def _closed_L(model, key, n):
    m = len(key)
    c = Fraction(-1 if m % 2 else 1)
    if model.q != 1:
        c *= model.q ** comb(m, 2)
    return LinComb.term(comp_opp(key), c)


def _closed_Pi(model, key, n):
    out = {}
    for y in partition_refinements(key):
        sign = -1 if len(y) % 2 else 1
        out[y] = Fraction(sign * partition_rel_factorial(key, y))
    return LinComb.wrap(out)


def _closed_G(model, key, n):
    full = full_mask(n)
    out = {}
    for x in graphs.contraction_lattice(key, full):
        contracted = graphs.contract(key, x)
        a = graphs.acyclic_orientations(contracted, full_mask(len(x)))
        sign = -1 if len(x) % 2 else 1
        kept = graphs.restrict_to_partition(key, x)
        out[kept] = out.get(kept, ZERO) + sign * a
    return LinComb.wrap({k: v for k, v in out.items() if v})


def _closed_Sigma(model, key, n):
    opp = comp_opp(key)
    c0 = model.q ** dist_opp(key) if model.q != 1 else ONE
    if not c0:  # at q = 0, a key of two or more blocks has antipode 0
        return LinComb()
    out = {}
    for g in refinements(opp):
        sign = -1 if len(g) % 2 else 1
        out[g] = sign * c0
    return LinComb.wrap(out)


def _closed_Q_Sigma(model, key, n):
    sign = -1 if len(key) % 2 else 1
    return LinComb.term(comp_opp(key), Fraction(sign))


def _closed_Q_Pi(model, key, n):
    sign = -1 if len(key) % 2 else 1
    return LinComb.term(key, Fraction(sign))


def _closed_Q_G(model, key, n):
    c = graphs.component_count(key, full_mask(n))
    return LinComb.term(key, Fraction(-1 if c % 2 else 1))


_CLOSED_FORMS = {
    "E": _closed_E,
    "L": _closed_L,
    "Pi": _closed_Pi,
    "G": _closed_G,
    "Sigma": _closed_Sigma,
    "QSigma": _closed_Q_Sigma,
    "QPi": _closed_Q_Pi,
    "QG": _closed_Q_G,
}


def closed_form(model, key, n):
    """Registered cancellation-free antipode expansion of one basis key."""
    _require_hopf(model)
    fn = _CLOSED_FORMS.get(model.family)
    if fn is None:
        raise NotHopfError(f"no closed antipode form registered for {model.name}")
    return fn(model, key, n)


def has_closed_form(model):
    return model.family in _CLOSED_FORMS


def closed_term_count(model, key, n):
    """Term count of the closed form (for cancellation-freeness audits)."""
    return len(closed_form(model, key, n).terms)


# ---------------------------------------------------------------------------
# verification


def verify_antipode(model, fam, n):
    """Check both convolution identities at degree n on every basis key for
    the antipode family `fam` (degree -> LinMap, for degrees 0..n); failures
    are returned as data: the id*S failures, then the S*id ones, each in
    basis order.  One convolve call sweeps both identities."""
    _require_hopf(model)
    idf = identity_family(model, n)
    unit = unit_family(model, n)[n]
    bad = []
    convs = convolve(model, [(idf, fam), (fam, idf)], n)
    for label, conv in zip(("id*S", "S*id"), convs):
        if conv != unit:
            bad.extend((label, k) for k in model.basis(n) if conv(k) != unit(k))
    return bad
