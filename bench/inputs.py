"""Workload inputs and output checks for the bohrcc benchmark.

Everything here is plain data or a pure function of the workload seed, so
the same seed always yields the same inputs.  The golden outputs under
``golden/`` were recorded by ``make_golden.py`` and pin what a correct run
prints.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"

ORDER = 64
TOL = 1e-10
CAMPAIGN_SAMPLES = 100
RADIUS_ABS_TOL = 1e-9  # canonical radii against the golden values
SERIES_ABS_TOL = 1e-8  # |series lhs(r_f) - target| for box draws
MARGIN_FLOOR = -1e-9  # smallest campaign margin that still counts as a pass
SERIES_CHECK_MAX_R = 0.9  # order-64 series route is trusted up to here

CLASSES = ("Ks", "Sc", "Cc", "Cs")

#: The six canonical specs of tests/test_acceptance.py, as (family, params).
CANONICAL = (
    ("janowski", (1.0, -1.0)),
    ("sakaguchi", (0.25,)),
    ("lemniscate", (0.5,)),
    ("expblend", (0.03,)),
    ("strongly", (0.5,)),
    ("wang", (0.5, 1.0)),
)

#: Admissible near-edge inputs, as (class, family, params), that fail at the
#: commit that introduced this benchmark (ROADMAP item 3): janowski raises
#: PrecisionError, the others NoRootError.
EDGE = tuple(
    [(c, "lemniscate", (1e-6,)) for c in ("Sc", "Cc", "Cs")]
    + [(c, "strongly", (1e-4,)) for c in ("Sc", "Cc", "Cs")]
    + [(c, "wang", (0.0, 1e-6)) for c in ("Sc", "Cc", "Cs")]
    + [("Cs", "expblend", (0.999,))]
    + [(c, "janowski", (1.0, 0.999)) for c in ("Sc", "Cc")]
)


def _janowski_box(u):
    a = u[0]
    hi = min(a - 0.1, 0.5)
    return (a, -1.0 + u[1] * (hi + 1.0))


#: family -> (dimension, map from the unit cube into the drawn sub-box).
#: The sub-boxes stay clear of the admissible edges, where the fixed EDGE
#: inputs already sit, and keep r_f <= SERIES_CHECK_MAX_R so that the
#: independent series check applies to every draw.
BOX = {
    "janowski": (2, _janowski_box),
    "sakaguchi": (1, lambda u: (0.75 * u[0],)),
    "lemniscate": (1, lambda u: (0.1 + 0.6 * u[0],)),
    "expblend": (1, lambda u: (0.9 * u[0],)),
    "strongly": (1, lambda u: (0.2 + 0.8 * u[0],)),
    "wang": (2, lambda u: (u[0], 0.2 + 0.8 * u[1])),
}


def box_draws(seed: int):
    """One seeded spec per (class, family), as (class, family, params).

    Ks and Cc take a point u of the unit cube and Sc and Cs its mirror
    1 - u.  A solve's cost grows with its root, and the root moves
    monotonically with each parameter, so the mirrored pair keeps the
    pass cost from swinging with the seed.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xB0])
    out = []
    for family, (dim, to_params) in BOX.items():
        u = rng.random(dim)
        for cls in CLASSES:
            point = u if cls in ("Ks", "Cc") else 1.0 - u
            out.append((cls, family, tuple(float(p) for p in to_params(point))))
    return out


def campaign_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


#: (tag, argv) of the fixed CLI commands whose stdout is pinned byte for byte.
CLI_GOLDEN = (
    ("table1", ["table", "1"]),
    ("table2", ["table", "2"]),
    ("table3", ["table", "3"]),
    ("table4", ["table", "4"]),
    ("radius-Ks", ["radius", "--class", "Ks", "--phi", "wang", "--alpha", "0.5", "--beta", "1"]),
    ("radius-Sc", ["radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5"]),
    ("radius-Cc", ["radius", "--class", "Cc", "--phi", "janowski", "--A", "1", "--B", "-1"]),
    ("radius-Cs", ["radius", "--class", "Cs", "--phi", "strongly", "--alpha", "0.5"]),
)

#: class -> canonical spec and its CLI flags for the seeded `verify` commands.
CLI_VERIFY = {
    "Ks": (("strongly", (0.5,)), ["--phi", "strongly", "--alpha", "0.5"]),
    "Sc": (("expblend", (0.03,)), ["--phi", "expblend", "--alpha", "0.03"]),
    "Cc": (("sakaguchi", (0.25,)), ["--phi", "sakaguchi", "--gamma", "0.25"]),
    "Cs": (("lemniscate", (0.5,)), ["--phi", "lemniscate", "--s", "0.5"]),
}


def cli_commands(seed: int):
    """The cli-cold pass: (tag, class or None, argv)."""
    cmds = [(tag, tag.split("-")[1] if "-" in tag else None, argv) for tag, argv in CLI_GOLDEN]
    for cls, (_, flags) in CLI_VERIFY.items():
        argv = ["verify", "--class", cls, *flags, "--samples", str(CAMPAIGN_SAMPLES)]
        cmds.append((f"verify-{cls}", cls, argv + ["--seed", str(seed)]))
    return cmds


def campaign_mismatch(failures: int, min_margin: float, r_f: float, want: float) -> str | None:
    """Why a verification report is wrong, or None when it passes."""
    if failures:
        return f"{failures} failing samples"
    if min_margin < MARGIN_FLOOR:
        return f"min_margin {min_margin!r}"
    if abs(r_f - want) > RADIUS_ABS_TOL:
        return f"r_f {r_f!r} != golden {want!r}"
    return None


def spec_key(cls: str, family: str, params) -> str:
    return f"{cls}:{family}:" + ",".join(repr(float(p)) for p in params)


def load_golden():
    radii = json.loads((GOLDEN / "canonical_radii.json").read_text())
    stdout = {tag: (GOLDEN / f"{tag}.out").read_bytes() for tag, _ in CLI_GOLDEN}
    return radii, stdout


THREAD_VARS = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}


def child_env() -> dict:
    """Environment for every child: the package from this checkout and
    one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.pop("BOHR_ORDER", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_VARS)
    return env


def import_package():
    """Import bohrcc from this checkout's src/, refusing any other copy."""
    init = SRC / "bohrcc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a bohrcc checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bohrcc

    if Path(bohrcc.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported bohrcc from {bohrcc.__file__}, expected {init}")
    return bohrcc
