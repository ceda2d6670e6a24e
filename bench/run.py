"""Benchmark for bohrcc: cold radius solves, cold CLI runs and warm
verification campaigns.

    python3 bench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads (see BENCHMARK.json for why each exists):

``solve-cold``  one op is one ``solve_radius`` at order 64, tol 1e-10; a pass
                is the 24 canonical pairs, 24 seeded box draws and the 12
                fixed edge inputs, with every package cache emptied first.
``cli-cold``    one op is one fresh ``python -m bohrcc`` process: tables 1-4,
                ``radius`` per class and a seeded ``verify`` per class.
``campaign``    one op is one ``run_campaign`` of 100 samples over a canonical
                pair whose radius was solved during set-up.

Load comes from this one process (and, for cli-cold, one child at a time).
``--trace 0`` measures at least two whole passes, and more while they fit
in ``--seconds``, and prints the end-to-end metrics; ``--trace 1`` runs one plain pass and one traced pass
of the same ops and prints the per-layer metrics and the tracing
overhead.  Every op's output is checked; the last stdout line is the
result object, the line before it holds sample counts and the
environment.
"""

from __future__ import annotations

import os

import inputs

os.environ.update(inputs.THREAD_VARS)  # before anything imports numpy

import argparse
import bisect
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

from calibrate import reference_seconds as calibrate_ref
from tracer import Tracer, package_caches

SETUP_PROBES = 3
SPAN_DIR = inputs.ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
REF_WINDOW_S = 2.0
REF_MIN_READINGS = 6
UNEXPECTED = "mismatch"  # errors.<name>.count key for wrong answers


@dataclass
class OpResult:
    tag: str
    cls: str | None
    seconds: float
    error: str | None = None  # exception class the op raised, if any
    mismatch: str | None = None  # why the outcome is wrong, if it is
    timed_class: bool = False  # counts toward class_cost.<cls>
    ref: float = 0.0  # reference-kernel seconds around the op (0 when not calibrated)

    @property
    def cost(self) -> float:
        return self.seconds / self.ref


def _timed_child(argv, **kwargs):
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        env=inputs.child_env(),
        cwd=inputs.ROOT,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        **kwargs,
    )
    return proc, time.perf_counter() - start


def _report_exception(tag: str) -> None:
    sys.stderr.write(f"bench: op {tag} raised\n{traceback.format_exc()}")


class Workload:
    """A fixed list of ops, run in order once per pass."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.cache_delta: dict[str, tuple[int, int, int]] = {}

    def prepare_pass(self) -> None:
        pass

    def run_pass(self, tracer: Tracer | None = None, calibrate: bool = False) -> list[OpResult]:
        """Run every op once.  With ``calibrate`` the reference kernel is
        timed before the first op and after each op, and each op's ``ref``
        is the median of the readings taken within REF_WINDOW_S of the op's
        midpoint (at least the REF_MIN_READINGS nearest): single readings
        are noisy, while the host's state changes over seconds."""
        self.prepare_pass()
        results, mids = [], []
        stamps, readings = [], []

        def read():
            if calibrate:
                readings.append(calibrate_ref())
                stamps.append(time.perf_counter())

        read()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            results.append(self.run_op(op, tracer))
            mids.append(0.5 * (start + time.perf_counter()))
            read()
        if calibrate:
            for result, mid in zip(results, mids):
                result.ref = _nearby_median(stamps, readings, mid)
        return results


def _nearby_median(stamps, readings, at) -> float:
    lo = bisect.bisect_left(stamps, at - REF_WINDOW_S)
    hi = bisect.bisect_right(stamps, at + REF_WINDOW_S)
    if hi - lo < REF_MIN_READINGS:
        nearest = sorted(range(len(stamps)), key=lambda j: abs(stamps[j] - at))
        return statistics.median(readings[j] for j in nearest[:REF_MIN_READINGS])
    return statistics.median(readings[lo:hi])


class _InProcess(Workload):
    """Workloads whose ops call the package in this process."""

    def setup(self) -> None:
        inputs.import_package()
        from bohrcc import catalog, solver, verifier
        from bohrcc.errors import BohrccError

        self.catalog, self.solver, self.verifier = catalog, solver, verifier
        self.BohrccError = BohrccError
        self.golden_radii, _ = inputs.load_golden()
        self.caches = package_caches()
        self.ops = self.build_ops()

    def prepare_pass(self) -> None:
        self._before = {k: c.cache_info() for k, c in self.caches.items()}

    def run_pass(self, tracer: Tracer | None = None, calibrate: bool = False) -> list[OpResult]:
        results = super().run_pass(tracer, calibrate)
        self.cache_delta = {}
        for key, cache in self.caches.items():
            info, before = cache.cache_info(), self._before[key]
            self.cache_delta[key] = (info.hits - before.hits, info.misses - before.misses, info.currsize)
        return results

    def _checked(self, tracer, check, *args) -> str | None:
        """Run an output check with tracing paused, so checks add no spans."""
        if tracer is not None:
            tracer.enabled = False
        try:
            return check(*args)
        finally:
            if tracer is not None:
                tracer.enabled = True

    def spec(self, family, params):
        return self.catalog.PhiSpec(family, params)

    def class_id(self, cls):
        return self.solver.ClassId.parse(cls)


class SolveCold(_InProcess):
    name = "solve-cold"

    def build_ops(self):
        ops = [("canonical", c, f, p) for c in inputs.CLASSES for f, p in inputs.CANONICAL]
        ops += [("draw", c, f, p) for c, f, p in inputs.box_draws(self.seed)]
        ops += [("edge", c, f, p) for c, f, p in inputs.EDGE]
        return ops

    def prepare_pass(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        full = {k: c.cache_info().currsize for k, c in self.caches.items() if c.cache_info().currsize}
        if full:
            raise RuntimeError(f"caches not empty after cache_clear: {full}")
        super().prepare_pass()

    def run_op(self, op, tracer) -> OpResult:
        kind, cls, family, params = op
        spec, class_id = self.spec(family, params), self.class_id(cls)
        tag = f"{kind}:{inputs.spec_key(cls, family, params)}"
        start = time.perf_counter()
        try:
            res = self.solver.solve_radius(class_id, spec, inputs.ORDER, inputs.TOL)
        except Exception as exc:
            seconds = time.perf_counter() - start
            name = type(exc).__name__
            # an edge input may fail with a documented package error (ROADMAP item 3)
            if kind == "edge" and isinstance(exc, self.BohrccError):
                return OpResult(tag, cls, seconds, name)
            _report_exception(tag)
            return OpResult(tag, cls, seconds, name, f"raised {name}")
        seconds = time.perf_counter() - start
        mismatch = self._checked(tracer, self.check, kind, cls, family, params, class_id, spec, res)
        return OpResult(tag, cls, seconds, None, mismatch, timed_class=kind == "canonical")

    def check(self, kind, cls, family, params, class_id, spec, res) -> str | None:
        if kind == "canonical":
            want = self.golden_radii[inputs.spec_key(cls, family, params)]
            if abs(res.r_f - want) > inputs.RADIUS_ABS_TOL:
                return f"r_f {res.r_f!r} != golden {want!r}"
            return None
        if kind == "edge":
            if res.capped != min(1.0 / 3.0, res.r_f):
                return f"capped {res.capped!r} is not min(1/3, r_f={res.r_f!r})"
            if res.r_f > inputs.SERIES_CHECK_MAX_R:
                return None
        lhs = self.solver.lhs_at(class_id, spec, res.r_f, "series", inputs.ORDER, inputs.TOL)
        target = self.solver.target_constant(class_id, spec, inputs.ORDER, inputs.TOL)
        if abs(lhs - target) > inputs.SERIES_ABS_TOL:
            return f"series lhs(r_f) - target = {lhs - target:.3g}"
        return None


class Campaign(_InProcess):
    name = "campaign"

    def build_ops(self):
        ops = [(c, f, p) for c in inputs.CLASSES for f, p in inputs.CANONICAL]
        self.setup_mismatches = []
        for cls, family, params in ops:  # the pre-solve: campaigns below run warm
            res = self.solver.solve_radius(
                self.class_id(cls), self.spec(family, params), inputs.ORDER, inputs.TOL
            )
            want = self.golden_radii[inputs.spec_key(cls, family, params)]
            if abs(res.r_f - want) > inputs.RADIUS_ABS_TOL:
                self.setup_mismatches.append(f"{cls} {family}{params}: r_f {res.r_f!r}")
        return [(i, *op) for i, op in enumerate(ops)]

    def run_op(self, op, tracer) -> OpResult:
        index, cls, family, params = op
        tag = f"campaign:{inputs.spec_key(cls, family, params)}"
        spec, class_id = self.spec(family, params), self.class_id(cls)
        start = time.perf_counter()
        try:
            report = self.verifier.run_campaign(
                class_id,
                spec,
                inputs.CAMPAIGN_SAMPLES,
                inputs.campaign_seed(self.seed, index),
                order=inputs.ORDER,
                tol=inputs.TOL,
            )
        except Exception as exc:
            _report_exception(tag)
            name = type(exc).__name__
            return OpResult(tag, cls, time.perf_counter() - start, name, f"raised {name}")
        seconds = time.perf_counter() - start
        mismatch = self._checked(tracer, self.check, cls, family, params, report)
        return OpResult(tag, cls, seconds, None, mismatch, timed_class=True)

    def check(self, cls, family, params, report) -> str | None:
        want = self.golden_radii[inputs.spec_key(cls, family, params)]
        return inputs.campaign_mismatch(len(report.failures), report.min_margin, report.radius.r_f, want)


class CliCold(Workload):
    """Each op is one fresh interpreter, run one at a time."""

    name = "cli-cold"
    traced = False  # run each command in cli_child.py with the tracer installed

    def setup(self) -> None:
        inputs.import_package()  # what every op pays; also proves the checkout is whole
        self.golden_radii, self.golden_stdout = inputs.load_golden()
        self.ops = inputs.cli_commands(self.seed)
        self.layers: Counter = Counter()
        self._caches: Counter = Counter()

    def prepare_pass(self) -> None:
        self.layers = Counter()
        self._caches = Counter()

    def run_pass(self, tracer: Tracer | None = None, calibrate: bool = False) -> list[OpResult]:
        results = super().run_pass(None, calibrate)
        keys = {k for k, _ in self._caches}
        self.cache_delta = {k: tuple(self._caches[k, f] for f in range(3)) for k in keys}
        return results

    def run_op(self, op, tracer) -> OpResult:
        tag, cls, argv = op
        if self.traced:
            child = [sys.executable, str(inputs.BENCH_DIR / "cli_child.py")]
            child += ["--spans", str(SPAN_DIR / f"spans-cli-cold-seed{self.seed}-{tag}.jsonl")]
            proc, seconds = _timed_child([*child, "--", *argv])
            try:
                payload = json.loads(proc.stdout.decode().splitlines()[-1])
            except (IndexError, ValueError):
                payload = {"exit": proc.returncode, "stdout": "", "layers": {}, "caches": {}}
            code, stdout = payload["exit"], payload["stdout"].encode()
            self.layers.update(payload["layers"])
            for key, counts in payload["caches"].items():
                for field, n in enumerate(counts):
                    self._caches[key, field] += n
        else:
            proc, seconds = _timed_child([sys.executable, "-m", "bohrcc", *argv])
            code, stdout = proc.returncode, proc.stdout
        mismatch = self.check(tag, cls, code, stdout)
        if mismatch:
            sys.stderr.write(f"bench: {tag}: {mismatch}\n{proc.stderr.decode()[-2000:]}")
        error = None if code == 0 else f"exit{code}"
        return OpResult(tag, cls, seconds, error, mismatch, timed_class=cls is not None)

    def check(self, tag, cls, code, stdout) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if tag in self.golden_stdout:
            return None if stdout == self.golden_stdout[tag] else "stdout differs from golden"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "verify printed no JSON"
        (family, params), _ = inputs.CLI_VERIFY[cls]
        want = self.golden_radii[inputs.spec_key(cls, family, params)]
        return inputs.campaign_mismatch(
            len(report["failures"]), report["min_margin"], report["radius"]["r_f"], want
        )


WORKLOADS = {w.name: w for w in (SolveCold, CliCold, Campaign)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to ready-for-the-first-op, timed from outside."""
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
        proc, seconds = _timed_child(argv)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed\n{proc.stderr.decode()}")
        samples.append(seconds)
    return samples


def _figures(passes, value, unit: str) -> dict[str, float]:
    """Pass total (median over passes), op median and 90th percentile (over
    every op of every pass) and per-class geometric means (over the
    successful ops that count toward their class).  A class's ops differ
    by up to 10x, so a median of them would sit in a gap between groups
    and jump with noise; the geometric mean weighs each op alike."""
    ops = [r for results in passes for r in results]
    per_op = [value(r) for r in ops]
    out = {
        f"pass_{unit}": statistics.median(sum(value(r) for r in results) for results in passes),
        f"op_{unit}_p50": statistics.median(per_op),
        f"op_{unit}_p90": _p90(per_op),
    }
    for cls in inputs.CLASSES:
        timed = [value(r) for r in ops if r.cls == cls and r.timed_class and not r.error]
        out[f"class_{unit}.{cls}"] = statistics.geometric_mean(timed)
    return out


def end_to_end(wl, passes, setup_samples, metric_units) -> tuple[dict, dict]:
    """Costs are op wall times in units of the reference kernel timed around
    each op (see calibrate.py).  The same figures in raw wall-clock
    milliseconds go on the details line."""
    ops = [r for results in passes for r in results]
    values = _figures(passes, lambda r: r.cost, "cost")
    values["setup_s"] = statistics.median(setup_samples)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    details = {
        "passes": len(passes),
        "op_samples": len(ops),
        "class_samples": {
            c: sum(1 for r in ops if r.cls == c and r.timed_class and not r.error) for c in inputs.CLASSES
        },
        "setup_s_samples": setup_samples,
        "ref_ms_median": 1e3 * statistics.median(r.ref for r in ops),
        "wall": _figures(passes, lambda r: 1e3 * r.seconds, "ms"),
    }
    return {k: {"value": values[k], "unit": u} for k, u in metric_units.items()}, details


def _import_seconds() -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c 'import bohrcc'``."""
    proc, _ = _timed_child([sys.executable, "-X", "importtime", "-c", "import bohrcc"])
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {
        "cli.import.bohrcc_s": cumulative.get("bohrcc", 0.0),
        "cli.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


def per_layer(layers, cache_delta, errors: Counter, metric_units) -> dict:
    values = dict(layers)
    for key, (hits, misses, currsize) in cache_delta.items():
        name = f"cache.{key}" if f"cache.{key}.hits" in metric_units else "cache.other"
        for field, v in (("hits", hits), ("misses", misses), ("currsize", currsize)):
            values[f"{name}.{field}"] = values.get(f"{name}.{field}", 0) + v
    for cls, n in errors.items():
        name = f"errors.{cls}.count"
        if name not in metric_units:
            name = "errors.other.count"
        values[name] = values.get(name, 0) + n
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in metric_units.items()}


def _errors(results) -> Counter:
    out = Counter()
    for r in results:
        if r.error:
            out[r.error] += 1
        elif r.mismatch:
            out[UNEXPECTED] += 1
    return out


def traced_run(wl) -> tuple[list, dict, Counter, dict]:
    """One plain pass, then the same ops traced; returns all results,
    the layer values, the traced pass's errors and details."""
    start = time.perf_counter()
    plain = wl.run_pass()
    plain_s = time.perf_counter() - start
    SPAN_DIR.mkdir(exist_ok=True)
    if isinstance(wl, CliCold):
        wl.traced = True
        start = time.perf_counter()
        traced = wl.run_pass()
        traced_s = time.perf_counter() - start
        layers = dict(wl.layers)
        spans = int(layers.pop("trace.spans", 0))
    else:
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            traced = wl.run_pass(tracer)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        spans = tracer.write_spans(SPAN_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl")
    layers.update(_import_seconds())
    layers["trace.overhead_s"] = traced_s - plain_s
    layers["trace.spans"] = spans
    details = {"plain_pass_s": plain_s, "traced_pass_s": traced_s}
    return plain + traced, layers, _errors(traced), details


def environment(load_before) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = inputs.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"bench: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    load_before = os.getloadavg()
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_probe:
        return 0

    setup_mismatches = getattr(wl, "setup_mismatches", [])
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        results, layers, errors, details = traced_run(wl)
        metrics = per_layer(layers, wl.cache_delta, errors, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        setup_samples = setup_seconds(args.workload, args.seed)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # kernel, ops, children: one CPU
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(wl.run_pass(calibrate=True))
            elapsed = time.perf_counter() - start
            # at least two passes; another only if at most half of it would
            # run past the budget
            if len(passes) >= 2 and elapsed + 0.5 * (time.perf_counter() - t0) > args.seconds:
                break
        results = [r for rs in passes for r in rs]
        metrics, details = end_to_end(wl, passes, setup_samples, units)
        details["errors"] = dict(_errors(results))
    mismatches = [f"{r.tag}: {r.mismatch}" for r in results if r.mismatch] + setup_mismatches
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        mismatches=mismatches[:20],
        env=environment(load_before),
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": len(results),
                "failed": sum(1 for r in results if r.error or r.mismatch),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
