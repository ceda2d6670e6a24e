"""Run one bohrcc CLI command in-process with the benchmark's tracer installed.

    python3 bench/cli_child.py --spans PATH -- table 1

Prints one JSON line: the command's exit code and stdout, the per-layer
counters and self times, and each package cache's hits, misses and size
at exit.  The spans go to PATH.
"""

from __future__ import annotations

import os

import inputs

os.environ.update(inputs.THREAD_VARS)  # before anything imports numpy

import argparse
import contextlib
import io
import json
import sys

from tracer import Tracer, package_caches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    inputs.import_package()
    import bohrcc.cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bohrcc.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace.spans"] = tracer.write_spans(args.spans)
    caches = {}
    for key, cache in package_caches().items():
        info = cache.cache_info()
        caches[key] = [info.hits, info.misses, info.currsize]
    print(json.dumps({"exit": code, "stdout": out.getvalue(), "layers": layers, "caches": caches}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
