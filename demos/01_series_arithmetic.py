"""Truncated power series arithmetic, the layer everything else sits on.

Series live as plain coefficient vectors about 0.  The operations are
exact recurrences up to the truncation order, so familiar identities can
be checked coefficient by coefficient.
"""

import numpy as np

from bohrcc import ClassId
from bohrcc import power_series as ps

# The geometric series 1/(1-z), truncated to 16 coefficients.
geom = ps.TruncatedSeries([1.0] * 16)
print("geometric series:", geom)
print("value at 1/2 (should be 2):", ps.evaluator(geom)(0.5))

# Multiplying by (1-z) recovers the constant 1.
one = ps.mul(ps.TruncatedSeries([1.0, -1.0] + [0.0] * 14), geom)
print("\n(1-z) * 1/(1-z) coefficients:", np.round(one.coeffs[:6], 12))

# exp of sum 2 z^n / n is 1/(1-z)^2: coefficient n+1 at z^n.
log_sq = ps.TruncatedSeries([0.0] + [2.0 / n for n in range(1, 16)])
sq = ps.exp_series(log_sq)
print("\nexp(sum 2 z^n/n) coefficients:", sq.coeffs[:8])

# ... and exp of half that log series, its square root, is the geometric
# series again.  This is how the bundle builds K' = (k'(z^2))^{1/2}.
root = ps.exp_series(ps.TruncatedSeries(0.5 * log_sq.coeffs))
print("exp(sum z^n/n), its square root:", root.coeffs[:8])

# The majorant transform replaces coefficients by absolute values.  Its
# evaluation at r is the quantity all Bohr-type inequalities control.
wiggly = ps.TruncatedSeries([0.0, 1.0, -0.5, 0.25, -0.125])
print("\nwiggly series:     ", wiggly.coeffs)
print("majorant transform:", ps.majorant(wiggly).coeffs)
print("sum |a_n| (1/3)^n =", ps.evaluator(ps.majorant(wiggly))(1 / 3))

# Termwise integration commutes with the majorant: integrating the
# majorant and evaluating equals integrating the pointwise values.  A
# class transform works on coefficient arrays; for Sc it is one
# integration, c_n moving to z^(n+1) divided by n + 1.
curve = ps.TruncatedSeries(ClassId.SC.transform(ps.majorant(wiggly).coeffs))
print("\nintegral of the majorant up to 1/3:", ps.evaluator(curve)(1 / 3))

# Composition with a disk self-map fixing 0 can only shrink the
# coefficient-modulus sum at radii up to 1/3.  With w = 0.8 z^2 it is a
# re-indexing: 1/(1 - 0.8 z^2) has 0.8^k at z^{2k}.
squeezed_coeffs = np.zeros(16)
squeezed_coeffs[::2] = geom.coeffs[:8] * 0.8 ** np.arange(8)
squeezed = ps.TruncatedSeries(squeezed_coeffs)
print("\nmajorant sums at r = 1/3:")
print("  original:", ps.evaluator(ps.majorant(geom))(1 / 3))
print("  composed with 0.8 z^2:", ps.evaluator(ps.majorant(squeezed))(1 / 3))
