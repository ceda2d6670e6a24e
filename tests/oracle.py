"""A 30-digit mpmath oracle for the radius equations, independent of bohrcc's
series, quadrature and closed forms.  Every slice assumes phi has
nonnegative coefficients, so that each majorant M_f in a class lhs is f
itself.  Integrals are taken by ``mp.quad`` and roots by
``mp.findroot``.

Ks slice: the root of integral_0^r phi(t)/(1-t^2) dt =
integral_0^1 phi(-t)/(1+t^2) dt.

Sc slice: M_h = h, so the Sc radius is the root of h(r) = -h(-1) for the
starlike extremal

    h(x) = x k'(x),    k'(x) = exp(integral_0^x (phi(t) - 1)/t dt).

Cc slice: k' phi = (z k')' = h', so the Cc lhs
integral_0^r (1/s) integral_0^s k' phi dt ds is k(r), and the Cc radius is
the root of k(r) = -k(-1), with k(x) = integral_0^x k'(t) dt by nested
quadrature.

Cs slice: by Fubini the target integral_0^1 (1/s) integral_0^s g dt ds is
integral_0^1 g(t) (-ln t) dt with g(t) = (k'(-t^2))^{1/2} phi(-t).  The
coefficients of K'(t) = (k'(t^2))^{1/2} = exp(sum_n phi_n t^{2n} / (2n))
are nonnegative whenever phi's are, so M_{K'} = K'; only phi with
mixed-sign coefficients (in this catalog, Janowski with B > 0) makes them
mix signs.  The lhs is the termwise nested integral of the order-160
series M_{K'} phi, with phi's Taylor coefficients from ``mp.taylor``, or,
near r = 1 where that series' tail is too large, the quadrature
integral_0^r K'(t) phi(t) ln(r/t) dt (``cs_lhs``).

Mixed-sign slice: Janowski phi = (1 + Az)/(1 + Bz) with B > 0 has the
coefficients (A - B)(-B)^{n-1}, so the lhs reads the majorants
M_phi(t) = 1 + (A - B)t/(1 - Bt) and, with p = (A - B)/B,

    M_{k'}(t) = sum |C(p, n)| (Bt)^n,    M_{K'}(t) = sum |C(p/2, n)| (Bt^2)^n

of k'(x) = (1 + Bx)^p and K'(x) = (1 + Bx^2)^{p/2}, integrated termwise.
The targets are -h(-1) = (1 - B)^p (Sc), -k(-1) = (1 - (1 - B)^{A/B})/A
(Cc), and integral_0^1 (1 - Bt^2)^{p/2} phi(-t) (-ln t) dt (Cs).

Closed k: a Janowski-style spec has k(x) = ((1 + Bx)^{A/B} - 1)/A, taken
through ``mp.expm1`` and ``mp.log1p`` so that a tiny A or B keeps its
digits (``janowski_k``).
"""

from __future__ import annotations

from mpmath import mp, mpf

DPS = 30
#: order of the Cs lhs series: its tail is about 0.64^160 < 1e-30 up to the
#: largest canonical Cs root, 0.638; the mixed-sign lhs terms fall like
#: (Br)^n, below 0.5^160 < 1e-48 for B <= 1/2 and r < 1
CS_ORDER = 160


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


def exp_series(c):
    """Coefficients of exp of the series c (c[0] = 0), by E' = c'E."""
    e = [mpf(1)] + [mpf(0)] * (len(c) - 1)
    for m in range(1, len(c)):
        e[m] = mp.fsum(j * c[j] * e[m - j] for j in range(1, m + 1)) / m
    return e


def janowski_k(a, b, x):
    """k(x) = ((1 + bx)^{a/b} - 1)/a of a Janowski-style spec, with its
    limits (e^{ax} - 1)/a at b = 0 and log(1 + bx)/b at a = 0."""
    with mp.workdps(DPS):
        a, b, x = mpf(a), mpf(b), mpf(x)
        if b == 0:
            return mp.expm1(a * x) / a
        if a == 0:
            return mp.log1p(b * x) / b
        return mp.expm1(a / b * mp.log1p(b * x)) / a


def cs_lhs_coefficients(spec, order=CS_ORDER):
    """Coefficients c_n of the series M_{K'} phi, to the given order."""
    with mp.workdps(DPS):
        p = mp.taylor(phi(spec), 0, order - 1)
        log_big_k = [mpf(0)] * order
        for n in range(1, (order + 1) // 2):
            log_big_k[2 * n] = p[n] / (2 * n)
        big_k = [abs(c) for c in exp_series(log_big_k)]
        return [mp.fsum(big_k[j] * p[n - j] for j in range(n + 1)) for n in range(order)]


def cs_target(spec):
    """The Cs target integral_0^1 (k'(-t^2))^{1/2} phi(-t) (-ln t) dt."""
    f = phi(spec)
    with mp.workdps(DPS):
        return mp.quad(lambda t: mp.sqrt(k_prime(spec, -t * t)) * f(-t) * -mp.log(t), [0, 1])


def cs_lhs(spec, r):
    """The Cs lhs integral_0^r (k'(t^2))^{1/2} phi(t) ln(r/t) dt by quadrature,
    for radii where the series of ``cs_root`` keeps too large a tail."""
    f = phi(spec)
    with mp.workdps(DPS):
        r = mpf(r)
        return mp.quad(lambda t: mp.sqrt(k_prime(spec, t * t)) * f(t) * mp.log(r / t), [0, r])


def cs_root(spec, lo=0.01, hi=0.95):
    """The root of the Cs equation in (lo, hi): the lhs sum_n c_n r^{n+1} / (n+1)^2
    against ``cs_target``."""
    with mp.workdps(DPS):
        c = cs_lhs_coefficients(spec)
        lhs = lambda r: mp.fsum(cn * r ** (n + 1) / (n + 1) ** 2 for n, cn in enumerate(c))
        return _root(lhs, cs_target(spec), lo, hi)


def janowski_mixed_root(class_name, spec, lo=0.01, hi=0.95):
    """The root of the Sc, Cc or Cs equation in (lo, hi) for a Janowski spec
    with B > 0, whose phi has coefficients of mixed sign."""
    a, b = (mpf(x) for x in spec.params)
    with mp.workdps(DPS):
        p = (a - b) / b
        m_phi = [mpf(1)] + [(a - b) * b ** (n - 1) for n in range(1, CS_ORDER)]
        if class_name == "Cs":  # M_{K'}: |C(p/2, n)| B^n on t^{2n}
            m_kernel = [mpf(0)] * CS_ORDER
            m_kernel[::2] = [abs(mp.binomial(p / 2, n)) * b**n for n in range((CS_ORDER + 1) // 2)]
        else:  # M_{k'}: |C(p, n)| B^n on t^n
            m_kernel = [abs(mp.binomial(p, n)) * b**n for n in range(CS_ORDER)]
        c = [mp.fsum(m_kernel[j] * m_phi[n - j] for j in range(n + 1)) for n in range(CS_ORDER)]
        power = 1 if class_name == "Sc" else 2  # one integration, or the nested one
        lhs = lambda r: mp.fsum(cn * r ** (n + 1) / (n + 1) ** power for n, cn in enumerate(c))
        if class_name == "Sc":
            target = (1 - b) ** p
        elif class_name == "Cc":
            target = (1 - (1 - b) ** (a / b)) / a
        else:
            g = lambda t: (1 - b * t * t) ** (p / 2) * (1 - a * t) / (1 - b * t)
            target = mp.quad(lambda t: g(t) * -mp.log(t), [0, 1])
        return _root(lhs, target, lo, hi)
