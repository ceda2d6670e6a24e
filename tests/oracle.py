"""A 30-digit mpmath oracle for the radius equations, independent of bohrcc's
series, quadrature and closed forms.  Every slice assumes phi has
nonnegative coefficients, so that each majorant M_f in a class lhs is f.
Integrals are taken by ``mp.quad`` and roots by ``mp.findroot``.

Ks slice: the root of integral_0^r phi(t)/(1-t^2) dt =
integral_0^1 phi(-t)/(1+t^2) dt.

Sc slice: M_h = h, so the Sc radius is the root of h(r) = -h(-1) for the
starlike extremal

    h(x) = x k'(x),    k'(x) = exp(integral_0^x (phi(t) - 1)/t dt).

Cc slice: k' phi = (z k')' = h', so the Cc lhs
integral_0^r (1/s) integral_0^s k' phi dt ds is k(r), and the Cc radius is
the root of k(r) = -k(-1), with k(x) = integral_0^x k'(t) dt by nested
quadrature.
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


def k_prime(spec, x):
    """The convex extremal's k'(x) on [-1, 1), by quadrature of its growth exponent."""
    f = phi(spec)
    with mp.workdps(DPS):
        return mp.exp(mp.quad(lambda t: (f(t) - 1) / t, [0, mpf(x)]))


def h(spec, x):
    """The starlike extremal h(x) = x k'(x) on [-1, 1)."""
    with mp.workdps(DPS):
        return mpf(x) * k_prime(spec, x)


def k(spec, x):
    """The convex extremal k(x) on [-1, 1), by nested quadrature."""
    with mp.workdps(DPS):
        return mp.quad(lambda t: k_prime(spec, t), [0, mpf(x)])


def _root(lhs, target, lo, hi):
    return mp.findroot(lambda r: lhs(r) - target, (mpf(lo), mpf(hi)), solver="anderson")


def ks_root(spec, lo=0.01, hi=0.95):
    """The root of the Ks equation in (lo, hi)."""
    f = phi(spec)
    with mp.workdps(DPS):
        target = mp.quad(lambda t: f(-t) / (1 + t * t), [0, 1])
        return _root(lambda r: mp.quad(lambda t: f(t) / (1 - t * t), [0, r]), target, lo, hi)


def sc_root(spec, lo=0.01, hi=0.95):
    """The root of h(r) = -h(-1) in (lo, hi)."""
    with mp.workdps(DPS):
        return _root(lambda r: h(spec, r), -h(spec, -1), lo, hi)


def cc_root(spec, lo=0.01, hi=0.95):
    """The root of k(r) = -k(-1) in (lo, hi)."""
    with mp.workdps(DPS):
        return _root(lambda r: k(spec, r), -k(spec, -1), lo, hi)
