"""The catalog of shape functions phi.

Each function class is pinned down by one analytic function phi with
phi(0) = 1, phi'(0) > 0, real coefficients, and an image starlike about
1.  The catalog provides series coefficients, pointwise values, and the
majorant data, all derived from the same spec record.
"""

import numpy as np

from bohrcc import expblend, janowski, lemniscate, sakaguchi, strongly, wang
from bohrcc.catalog import (
    check_min_max_hypothesis,
    has_positive_coeffs,
    majorant_phi_evaluator,
    phi_evaluator,
    phi_series,
)

specs = [
    janowski(1.0, -1.0),
    janowski(0.5, 0.25),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.05),
    strongly(0.5),
    wang(0.5, 1.0),
]

print(f"{'spec':28s} {'B1..B4':36s} positive?")
for spec in specs:
    c = phi_series(spec, 6).coeffs[1:5]
    print(f"{spec.label():28s} {np.array2string(c, precision=3):36s} {has_positive_coeffs(spec)}")

# Janowski with B > 0 alternates signs, so its majorant differs from phi
# itself; the others here keep every coefficient nonnegative.
mixed = janowski(0.5, 0.25)
print("\nmixed-sign example", mixed.label())
phi, majorant = phi_evaluator(mixed), majorant_phi_evaluator(mixed)
for r in (0.2, 0.4):
    print(f"  r={r}: phi(r) = {phi(r):.6f},  majorant sum = {majorant(r):.6f}")

# The growth estimates assume |phi| on each circle is extremized on the
# real axis.  The catalog can check that numerically for any spec.
print("\ncircle min/max hypothesis at r = 0.9:")
for spec in specs:
    print(f"  {spec.label():28s} {check_min_max_hypothesis(spec, 0.9, 361)}")
