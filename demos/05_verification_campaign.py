"""Empirical verification of the coefficient bound.

The solver promises that every class member obeys the bound up to the
computed radius.  The verifier builds actual members from the defining
identities with sampled disk self-maps and checks them one by one; the
sharp cases also demonstrate failure just past the radius.
"""

from bohrcc import ClassId, SelfMap, check_bohr, lemniscate, run_campaign, sample_member, solve_radius

spec = lemniscate(0.5)
result = solve_radius(ClassId.SC, spec)
print(f"{spec.label()} under Sc: r_f = {result.r_f:.7f} (sharp: {result.sharp})")

report = run_campaign(ClassId.SC, spec, n_samples=200, seed=42)
print(f"\ncampaign: {report.n} samples at r = {report.r_checked:.7f}")
print(f"  failures: {len(report.failures)}   min margin: {report.min_margin:.3e}")
print(f"  witness: extremal value {report.witness['value_at_radius']:.9f} "
      f"vs bound {report.witness['bound']:.9f}")

# The extremal member exhausts the bound exactly at r_f ...
extremal = sample_member(ClassId.SC, spec, SelfMap(1.0))
holds, margin = check_bohr(extremal, result.r_f)
print(f"\nextremal at r_f:        holds={holds}, margin={margin:+.2e}")

# ... and violates it a hair beyond, which is what "sharp" means.
holds, margin = check_bohr(extremal, result.r_f + 0.01)
print(f"extremal at r_f + 0.01: holds={holds}, margin={margin:+.2e}")

# A generic member sits strictly inside the bound.
generic = sample_member(ClassId.SC, spec, SelfMap(0.5, 3))
holds, margin = check_bohr(generic, result.r_f)
print(f"generic member at r_f:  holds={holds}, margin={margin:+.2e}")

# The nested classes have no sharpness claim; their campaigns simply
# confirm the inequality at the capped radius.
for class_id in (ClassId.CC, ClassId.CS):
    rep = run_campaign(class_id, spec, n_samples=100, seed=7)
    print(f"\n{class_id.value}: checked r = {rep.r_checked:.6f}, "
          f"min margin {rep.min_margin:.4f}, failures {len(rep.failures)}")
