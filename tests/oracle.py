"""A 30-digit mpmath oracle for the radius equations, independent of bohrcc's
series, quadrature and closed forms.

Sc slice: for phi with nonnegative coefficients M_h = h, so the Sc radius
is the root of h(r) = -h(-1) for the starlike extremal

    h(x) = x exp(integral_0^x (phi(t) - 1)/t dt),

with the integral taken by ``mp.quad`` and the root by ``mp.findroot``.
"""

from __future__ import annotations

from mpmath import mp, mpf

DPS = 30


def phi(spec):
    """phi of a catalog spec as a function of an mpf, from its definition."""
    family, p = spec.family, [mpf(x) for x in spec.params]
    if family == "janowski":
        a, b = p
        return lambda z: (1 + a * z) / (1 + b * z)
    if family == "sakaguchi":
        (g,) = p
        return lambda z: (1 + (1 - 2 * g) * z) / (1 - z)
    if family == "lemniscate":
        (s,) = p
        return lambda z: (1 + s * z) ** 2
    if family == "expblend":
        (a,) = p
        return lambda z: a + (1 - a) * mp.exp(z)
    if family == "strongly":
        (a,) = p
        return lambda z: ((1 + z) / (1 - z)) ** a
    if family == "wang":
        a, b = p
        return lambda z: (1 + b * z) / (1 - a * b * z)
    raise ValueError(f"no oracle phi for {family!r}")


def h(spec, x):
    """The starlike extremal h(x) on [-1, 1), by quadrature of its growth exponent."""
    f = phi(spec)
    with mp.workdps(DPS):
        x = mpf(x)
        return x * mp.exp(mp.quad(lambda t: (f(t) - 1) / t, [0, x]))


def sc_root(spec, lo=0.01, hi=0.95):
    """The root of h(r) = -h(-1) in (lo, hi), by a bracketing findroot."""
    with mp.workdps(DPS):
        target = -h(spec, -1)
        return mp.findroot(lambda r: h(spec, r) - target, (mpf(lo), mpf(hi)), solver="anderson")
