"""Record the golden outputs that the benchmark checks every op against.

    python3 bench/make_golden.py

Writes ``golden/canonical_radii.json`` (the 24 canonical cold radii) and one
``golden/<tag>.out`` file with the exact stdout bytes of each pinned CLI
command.  Run it only at a commit whose outputs are known to be right; the
files in the repository were recorded at the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys

import inputs


def main() -> int:
    inputs.import_package()
    from bohrcc.catalog import PhiSpec
    from bohrcc.solver import ClassId, solve_radius

    radii = {}
    for cls in inputs.CLASSES:
        for family, params in inputs.CANONICAL:
            res = solve_radius(ClassId.parse(cls), PhiSpec(family, params), inputs.ORDER, inputs.TOL)
            radii[inputs.spec_key(cls, family, params)] = res.r_f
    inputs.GOLDEN.mkdir(exist_ok=True)
    (inputs.GOLDEN / "canonical_radii.json").write_text(json.dumps(radii, indent=1) + "\n")
    for tag, argv in inputs.CLI_GOLDEN:
        out = subprocess.run(
            [sys.executable, "-m", "bohrcc", *argv],
            env=inputs.child_env(),
            cwd=inputs.ROOT,
            capture_output=True,
            check=True,
            timeout=120,
        )
        (inputs.GOLDEN / f"{tag}.out").write_bytes(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
