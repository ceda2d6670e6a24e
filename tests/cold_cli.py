"""A cold-process record of the bohrcc CLI: fresh ``python -m bohrcc``
processes of the benchmark's cli-cold commands (``bench/inputs.py``'s
``cli_commands(1)``) for one or more source trees, timed from outside.

    python tests/cold_cli.py --out BENCH.json parent=../parent/src change=src

Each ``LABEL=SRC`` names a tree by its ``src/`` directory; the label alone
goes into the record.  A child gets that directory as its only
``PYTHONPATH`` entry, the tree's root as its working directory and the
benchmark's one-thread BLAS environment; the rest of the environment
(``PYTHONDONTWRITEBYTECODE`` among it, which makes each process compile
the package again) is passed on and recorded.  Within a round the trees
alternate command by command, and each round reverses their order, so drift
in the host's load falls on every tree alike.

Per tree and command the record holds, over ``--repeats`` rounds:

* ``wall_ms``: the plain ``python -m bohrcc`` process, start to exit
  (quartiles and median);
* ``exit_ms``: from ``main()``'s return to the process's exit, read from a
  second process that runs ``bohrcc/__main__.py`` with ``main`` wrapped to
  stamp the monotonic clock when it returns (quartiles and median);
* ``numpy_scipy_modules``: the numpy and scipy modules loaded when
  ``main()`` returns;
* ``other_modules``: the other modules loaded then that a bare
  interpreter has not loaded, the package's own among them, read once per
  tree and command from a third process that imports nothing of its own
  but runpy, as ``-m`` does;
* ``stdout_sha256``: the digest of the plain process's stdout, so that two
  trees' outputs can be compared.

Three reference processes per tree, a bare interpreter and the imports of
numpy and of bohrcc, give the fixed part of every command's time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _bench_inputs import BENCH_INPUTS

SEED = 1
PROBE_TAG = "cold-cli-probe "
MODULES_TAG = "cold-cli-modules "

#: runs bohrcc/__main__.py as ``python -m bohrcc`` does, with cli.main
#: wrapped: when it returns, one stderr line gives the monotonic clock and the
#: count of numpy and scipy modules then loaded, leaving out a lazy binding's
#: module that never ran (``run()``, where a tree has it, calls the wrapped
#: ``main`` by its module global)
PROBE = f"""
import json, runpy, sys, time
import bohrcc.cli

main = bohrcc.cli.main

def stamped(argv=None):
    try:
        return main(argv)
    finally:
        loaded = [name for name, module in list(sys.modules.items())
                  if name.partition(".")[0] in ("numpy", "scipy") and type(module).__name__ != "_LazyModule"]
        returned = time.clock_gettime(time.CLOCK_MONOTONIC)
        sys.stderr.write({PROBE_TAG!r} + json.dumps([returned, len(loaded)]) + "\\n")
        sys.stderr.flush()

bohrcc.cli.main = stamped
runpy.run_module("bohrcc", run_name="__main__", alter_sys=True)
"""

#: runs bohrcc/__main__.py as PROBE does; when main() returns, one stderr
#: line names the modules then loaded, leaving out a lazy binding's module
#: that never ran
MODULES_PROBE = f"""
import runpy, sys
import bohrcc.cli

main = bohrcc.cli.main

def listed(argv=None):
    try:
        return main(argv)
    finally:
        names = [name for name, module in list(sys.modules.items()) if type(module).__name__ != "_LazyModule"]
        sys.stderr.write({MODULES_TAG!r} + " ".join(names) + "\\n")
        sys.stderr.flush()

bohrcc.cli.main = listed
runpy.run_module("bohrcc", run_name="__main__", alter_sys=True)
"""

#: a bare interpreter's modules, one name a line
BARE_MODULES = ["-c", "import sys; sys.stdout.write('\\n'.join(sys.modules))"]

REFERENCE = {
    "python": ["-c", "pass"],
    "import-numpy": ["-c", "import numpy"],
    "import-bohrcc": ["-c", "import bohrcc"],
}


def _env(src: Path) -> dict:
    env = BENCH_INPUTS.child_env()
    env["PYTHONPATH"] = str(src)
    return env


def _run(argv, src: Path):
    """(process, wall seconds, monotonic clock at its exit)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=_env(src), cwd=src.parent, capture_output=True, timeout=300
    )
    wall = time.perf_counter() - start
    return proc, wall, time.clock_gettime(time.CLOCK_MONOTONIC)


def _plain(argv, src: Path):
    proc, wall, _ = _run(argv, src)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: python {' '.join(argv)} exited {proc.returncode}\n{proc.stderr.decode()}")
    return wall, hashlib.sha256(proc.stdout).hexdigest()


def _probed(argv, src: Path):
    """(seconds from main()'s return to exit, numpy and scipy modules loaded)."""
    proc, _, exited = _run(["-c", PROBE, *argv], src)
    lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(PROBE_TAG)]
    if proc.returncode != 0 or len(lines) != 1:
        raise SystemExit(f"{src}: probed bohrcc {' '.join(argv)} exited {proc.returncode}\n{proc.stderr.decode()}")
    returned, modules = json.loads(lines[0][len(PROBE_TAG):])
    return exited - returned, modules


def _other_modules(argv, src: Path, bare: set[str]) -> int:
    """The modules besides numpy and scipy loaded when main() returns that
    the bare interpreter has not loaded."""
    proc, _, _ = _run(["-c", MODULES_PROBE, *argv], src)
    lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(MODULES_TAG)]
    if proc.returncode != 0 or len(lines) != 1:
        raise SystemExit(f"{src}: listing the modules of bohrcc {' '.join(argv)} exited {proc.returncode}")
    names = set(lines[0][len(MODULES_TAG):].split()) - bare
    return sum(name.partition(".")[0] not in ("numpy", "scipy") for name in names)


def _bare_modules(src: Path) -> set[str]:
    proc, _, _ = _run(BARE_MODULES, src)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: listing a bare interpreter's modules exited {proc.returncode}")
    return set(proc.stdout.decode().split("\n"))


def _quartiles_ms(seconds: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"q1": round(q1 * 1e3, 2), "median": round(median * 1e3, 2), "q3": round(q3 * 1e3, 2)}


def record(trees: dict[str, Path], repeats: int) -> dict:
    commands = {tag: argv for tag, _, argv in BENCH_INPUTS.cli_commands(SEED)}
    wall = {(label, tag): [] for label in trees for tag in [*REFERENCE, *commands]}
    exits = {(label, tag): [] for label in trees for tag in commands}
    digests, modules, others = {}, {}, {}
    for label, src in trees.items():
        bare = _bare_modules(src)
        others.update({(label, tag): _other_modules(argv, src, bare) for tag, argv in commands.items()})
    for round_ in range(repeats):
        order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
        for tag, argv in REFERENCE.items():
            for label in order:
                wall[label, tag].append(_plain(argv, trees[label])[0])
        for tag, argv in commands.items():
            for label in order:
                seconds, digest = _plain(["-m", "bohrcc", *argv], trees[label])
                wall[label, tag].append(seconds)
                if digests.setdefault((label, tag), digest) != digest:
                    raise SystemExit(f"{label}: bohrcc {' '.join(argv)} printed different bytes across runs")
                seconds, loaded = _probed(argv, trees[label])
                exits[label, tag].append(seconds)
                modules[label, tag] = loaded
        print(f"round {round_ + 1}/{repeats} done", file=sys.stderr)
    out = {}
    for label in trees:
        rows = {tag: {"argv": argv, "wall_ms": _quartiles_ms(wall[label, tag])} for tag, argv in REFERENCE.items()}
        for tag, argv in commands.items():
            rows[tag] = {
                "argv": ["-m", "bohrcc", *argv],
                "wall_ms": _quartiles_ms(wall[label, tag]),
                "exit_ms": _quartiles_ms(exits[label, tag]),
                "numpy_scipy_modules": modules[label, tag],
                "other_modules": others[label, tag],
                "stdout_sha256": digests[label, tag],
            }
        out[label] = rows
    return out


def _tree(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    src = Path(src).resolve()
    if not (src / "bohrcc" / "__main__.py").is_file():
        raise argparse.ArgumentTypeError(f"{src} holds no bohrcc package")
    return label, src


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=_tree, metavar="LABEL=SRC")
    parser.add_argument("--repeats", type=int, default=15, help="rounds over every command (default 15)")
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    args = parser.parse_args()
    trees = dict(args.trees)
    if len(trees) != len(args.trees) or args.repeats < 2:
        parser.error("labels must differ and --repeats must be at least 2")
    environment = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **BENCH_INPUTS.THREAD_VARS,
    }
    payload = {
        "what": "fresh python -m bohrcc processes of bench/inputs.py cli_commands(1); see tests/cold_cli.py",
        "repeats": args.repeats,
        "environment": environment,
        "trees": record(trees, args.repeats),
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
