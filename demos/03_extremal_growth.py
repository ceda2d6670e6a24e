"""Extremal functions and the boundary values that act as targets.

For each spec there is a starlike extremal h (z h'/h = phi) and a convex
extremal k (1 + z k''/k' = phi).  Their values at -1 measure how far the
image of the unit disk is guaranteed to reach around the origin, which is
exactly the constant the radius equations aim at.

Pointwise values come straight from the spec, through evaluators that bind
it once; the series come from the bundle's k' (h = z k', and k is its
antiderivative).
"""

import math

import numpy as np

from bohrcc import build_extremal, janowski, lemniscate, sakaguchi, strongly
from bohrcc.extremal import growth_evaluator, h_evaluator, k_at
from bohrcc import power_series as ps


def times_z(s):
    """The series of z s(z), keeping the order (the top coefficient is dropped)."""
    return ps.TruncatedSeries(np.concatenate(([0.0], s.coeffs[:-1])))


for spec in (janowski(1.0, -1.0), sakaguchi(0.25), lemniscate(0.5), strongly(0.5)):
    h, h_pointwise = times_z(build_extremal(spec).k_prime), h_evaluator(spec)
    print(spec.label())
    print(f"  h coefficients: {np.round(h.coeffs[:6], 6)}")
    print(f"  h(1/3) = {h_pointwise(1/3):.9f}   -h(-1) = {-h_pointwise(-1.0):.9f}")
    print(f"  k(1/3) = {k_at(spec, 1/3):.9f}   -k(-1) = {-k_at(spec, -1.0):.9f}")

# The widest Janowski spec reproduces the classical extremal geometry:
# h is the Koebe function z/(1-z)^2 and k maps onto a half plane.
spec = janowski(1.0, -1.0)
es = build_extremal(spec)
h = times_z(es.k_prime)
k = np.concatenate(([0.0], es.k_prime.coeffs / np.arange(1, es.k_prime.order + 1)))  # k(0) = 0
print("\nKoebe check: h coefficients are 0, 1, 2, 3, ...:", h.coeffs[:6])
print("half-plane check: k coefficients are 0, 1, 1, 1, ...:", np.round(k[:6], 12))

# The odd convex extremal K has derivative K'(t) = sqrt(k'(t^2)) =
# exp(G(t^2) / 2) with G the growth exponent: the bundle builds its series
# from G's, the evaluator gives it pointwise, and z K'(z) squares to h(z^2).
t = 0.4
series_val = ps.evaluator(es.K_prime)(t)
pointwise = math.exp(0.5 * growth_evaluator(spec)(t * t))
print(f"\nK'({t}) via series {series_val:.12f} vs pointwise {pointwise:.12f}")
zKp = times_z(es.K_prime)
square = ps.mul(zKp, zKp)
h_of_z2 = np.zeros(64)
h_of_z2[::2] = h.coeffs[:32]  # h(z^2) puts h_n at z^{2n}
print("max |(zK')^2 - h(z^2)| over 40 coefficients:",
      float(np.max(np.abs(square.coeffs[:40] - h_of_z2[:40]))))
