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
from .exactlin import LinComb, LinMap
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

ZERO = Fraction(0)
ONE = Fraction(1)

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


def _mm_map(model, n, lower, side):
    """One Milnor-Moore step at degree n given the maps of lower degrees.

    id * S = u.e vanishes in positive degree, and its term that puts the
    whole set under the antipode is S_n itself.  So S_n = -(id * S') for the
    right recursion and -(S' * id) for the left one, where S' extends the
    lower maps by the zero map at degree n.
    """
    basis = model.basis(n)
    if n == 0:
        return LinMap.identity(basis)
    ext = dict(lower)
    ext[n] = LinMap.zero(basis, basis)
    idf = identity_family(model, n)
    if side == "right":
        return convolve(model, idf, ext, n).scale(-1)
    return convolve(model, ext, idf, n).scale(-1)


def antipode_family(model, nmax, method="takeuchi"):
    """Antipode maps for all degrees 0..nmax as a dict degree -> LinMap."""
    _require_hopf(model)
    fam = {}
    for m in range(nmax + 1):
        if method == "takeuchi":
            fam[m] = _takeuchi_map(model, m)
        elif method == "mm-right":
            fam[m] = _mm_map(model, m, fam, "right")
        elif method == "mm-left":
            fam[m] = _mm_map(model, m, fam, "left")
        elif method == "closed":
            basis = model.basis(m)
            fam[m] = LinMap(basis, basis,
                            {k: closed_form(model, k, m) for k in basis})
        else:
            raise ValueError(f"unknown antipode method {method!r}")
    return fam


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
    fn = _CLOSED_FORMS.get(getattr(model, "family", None))
    if fn is None:
        raise NotHopfError(f"no closed antipode form registered for {model.name}")
    return fn(model, key, n)


def has_closed_form(model):
    return getattr(model, "family", None) in _CLOSED_FORMS


def closed_term_count(model, key, n):
    """Term count of the closed form (for cancellation-freeness audits)."""
    return len(closed_form(model, key, n).terms)


# ---------------------------------------------------------------------------
# verification


def verify_antipode(model, n, candidate=None, reference_method="takeuchi"):
    """Check both convolution identities at degree n on every basis key.

    The degree-n antipode piece is `candidate` when given (lower degrees come
    from the reference method); failures are returned as data.
    """
    _require_hopf(model)
    if candidate is None:
        fam = antipode_family(model, n, reference_method)
    else:
        fam = antipode_family(model, n - 1, reference_method)
        fam[n] = candidate
    idf = identity_family(model, n)
    uf = unit_family(model, n)
    bad = []
    left = convolve(model, idf, fam, n)
    if left != uf[n]:
        for k in model.basis(n):
            if left(k) != uf[n](k):
                bad.append(("id*S", k))
    right = convolve(model, fam, idf, n)
    if right != uf[n]:
        for k in model.basis(n):
            if right(k) != uf[n](k):
                bad.append(("S*id", k))
    return bad
