"""Dimension-sequence transforms for connected models: Boolean and binomial
transforms, logarithm of the exponential generating function, and the
ordinary/type ratio, with exact nonnegativity verdicts."""

from fractions import Fraction
from math import comb, factorial

from .exactlin import ONE, ZERO
from .species import orbit_count


def series_inverse(coeffs):
    """Multiplicative inverse of a power series with constant term 1."""
    if coeffs[0] != 1:
        raise ValueError("inversion needs constant term 1")
    n = len(coeffs)
    inv = [ONE] + [ZERO] * (n - 1)
    for m in range(1, n):
        inv[m] = -sum((Fraction(coeffs[k]) * inv[m - k] for k in range(1, m + 1)), ZERO)
    return inv


def series_multiply(a, b):
    n = min(len(a), len(b))
    return [sum((Fraction(a[k]) * Fraction(b[m - k]) for k in range(m + 1)), ZERO)
            for m in range(n)]


def series_log(coeffs):
    """Logarithm of a power series with constant term 1."""
    if coeffs[0] != 1:
        raise ValueError("logarithm needs constant term 1")
    n = len(coeffs)
    out = [ZERO] * n
    # l' = c'/c termwise: m*out[m] = m*c[m] - sum_{k=1}^{m-1} k*out[k]*c[m-k]
    for m in range(1, n):
        acc = Fraction(m) * Fraction(coeffs[m])
        for k in range(1, m):
            acc -= k * out[k] * Fraction(coeffs[m - k])
        out[m] = acc / m
    return out


def boolean_transform(dims):
    """Coefficients 1..N of 1 - 1/O(x) for the ordinary generating function."""
    inv = series_inverse([Fraction(d) for d in dims])
    return [-v for v in inv[1:]]


def binomial_transform(dims):
    """Alternating binomial transform of the dimension sequence."""
    out = []
    for n in range(len(dims)):
        out.append(sum((-1) ** (n - k) * comb(n, k) * dims[k] for k in range(n + 1)))
    return out


def log_egf(dims):
    """Coefficients 1..N of log of the exponential generating function."""
    egf = [Fraction(d, factorial(n)) for n, d in enumerate(dims)]
    return series_log(egf)[1:]


def type_ratio(ordinary_dims, type_dims):
    """Coefficients of O(x)/T(x)."""
    inv = series_inverse([Fraction(d) for d in type_dims])
    return series_multiply([Fraction(d) for d in ordinary_dims], inv)


def type_increments(type_dims):
    """Coefficients of (1-x)T(x): nonnegative iff the sequence is weakly
    increasing after the constant term."""
    out = [Fraction(type_dims[0])]
    for n in range(1, len(type_dims)):
        out.append(Fraction(type_dims[n] - type_dims[n - 1]))
    return out


def _nonneg(values):
    return all(v >= 0 for v in values)


def sequence_transform_report(model, nmax):
    """All transforms of the model's dimension sequence with exact verdicts.

    Dimensions come from the model's closed form; orbit counts (the type
    sequence) are computed only for set-theoretic models.
    """
    dims = [model.dim(n) for n in range(nmax + 1)]
    report = {
        "model": model.name,
        "nmax": nmax,
        "dims": dims,
        "boolean_transform": boolean_transform(dims),
        "binomial_transform": binomial_transform(dims),
        "log_egf": log_egf(dims),
    }
    report["boolean_nonneg"] = _nonneg(report["boolean_transform"])
    report["binomial_nonneg"] = _nonneg(report["binomial_transform"])
    report["log_egf_nonneg"] = _nonneg(report["log_egf"])
    if model.set_theoretic:
        types = [orbit_count(model, n) for n in range(nmax + 1)]
        report["type_dims"] = types
        report["type_ratio"] = type_ratio(dims, types)
        report["type_increments"] = type_increments(types)
        report["type_ratio_nonneg"] = _nonneg(report["type_ratio"])
        report["type_weakly_increasing"] = _nonneg(report["type_increments"][1:])
    return report
