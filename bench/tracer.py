"""Spans and work counters for bohrcc, recorded from outside the package.

``Tracer.install`` replaces each public function in ``LAYERS`` with a
wrapper in every ``bohrcc.*`` module that binds it, because several
modules import these functions by name.  A wrapper records a span (op id,
name, start, end, parent span) and a call count; the layer's self time is
its span time minus the time of the spans nested in it.  ``quad`` is
wrapped wherever a bohrcc module bound it and counts the integrand
evaluations of each call.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

#: (module, attribute, layer name, how to read integrand evaluations off
#: the result or None)
LAYERS = (
    ("bohrcc.quadrature", "integrate_1d", "quadrature.integrate_1d", "evaluations"),
    ("bohrcc.quadrature", "integrate_nested", "quadrature.integrate_nested", "evaluations"),
    ("bohrcc.solver", "solve_radius", "solver.solve_radius", None),
    ("bohrcc.solver", "lhs_at", "solver.lhs_at", None),
    ("bohrcc.solver", "target_constant", "solver.target_constant", None),
    ("bohrcc.extremal", "build_extremal", "extremal.build_extremal", None),
    ("bohrcc.extremal", "growth_exponent", "extremal.growth_exponent", None),
    ("bohrcc.power_series", "exp_series", "power_series.exp_series", None),
    ("bohrcc.power_series", "sqrt_series", "power_series.sqrt_series", None),
    ("bohrcc.power_series", "compose_with_selfmap", "power_series.compose_with_selfmap", None),
    ("bohrcc.power_series", "mul", "power_series.mul", None),
    ("bohrcc.power_series", "eval_at", "power_series.eval_at", None),
    ("bohrcc.catalog", "phi_series", "catalog.phi_series", None),
    ("bohrcc.verifier", "run_campaign", "verifier.run_campaign", None),
    ("bohrcc.verifier", "sample_member", "verifier.sample_member", None),
    ("bohrcc.verifier", "check_bohr", "verifier.check_bohr", None),
    ("bohrcc.cli", "main", "cli.main", None),
)
QUAD = "quadpack.quad"
TABLE = "quadrature.AntiderivativeTable"


def package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "bohrcc" or name.startswith("bohrcc."))
    ]


def package_caches():
    """Every lru_cache in bohrcc.*, found by its cache_clear, keyed by
    ``<module>.<qualname>`` without the package prefix."""
    found = {}
    for mod in package_modules():
        holders = [vars(mod)] + [vars(v) for v in vars(mod).values() if isinstance(v, type)]
        for ns in holders:
            for obj in ns.values():
                if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)
                ):
                    mod_name = getattr(obj, "__module__", "") or ""
                    key = mod_name.removeprefix("bohrcc.") + "." + obj.__qualname__
                    found[key] = obj
    return dict(sorted(found.items()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_op = array("i")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.op_id = -1
        self.enabled = True
        self._stack: list[list] = []  # [span index, seconds spent in child spans]
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_op.append(self.op_id)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _exit(self, name: str, frame) -> None:
        end = time.perf_counter()
        idx, child_s = frame
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        self.self_s[name] += duration - child_s
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, evals_attr):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if evals_attr is not None:
                tracer.counts[name + ".evals"] += int(getattr(result, evals_attr, 0))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_quad(self, quad):
        tracer = self

        def traced_quad(func, a, b, *args, **kwargs):
            if not tracer.enabled:
                return quad(func, a, b, *args, **kwargs)
            evals = [0]

            def counted(x, *extra):
                evals[0] += 1
                return func(x, *extra)

            frame = tracer._enter(QUAD)
            try:
                return quad(counted, a, b, *args, **kwargs)
            finally:
                tracer._exit(QUAD, frame)
                tracer.counts[QUAD + ".evals"] += evals[0]

        traced_quad.__wrapped__ = quad
        return traced_quad

    def _rebind(self, original, replacement, extra_owners=()) -> None:
        for owner in [*package_modules(), *extra_owners]:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, replacement)
                    self._undo.append((owner, key, original))

    def install(self) -> None:
        """Wrap every layer function, quad and the AntiderivativeTable
        constructor.  Functions a later version of the package no longer
        has are skipped; their counters then read 0."""
        for mod_name, attr, name, evals_attr in LAYERS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is not None:
                self._rebind(fn, self._wrap(name, fn, evals_attr))
        scipy_integrate = sys.modules.get("scipy.integrate")
        if scipy_integrate is not None:
            quad = scipy_integrate.quad
            self._rebind(quad, self._wrap_quad(quad), extra_owners=(scipy_integrate,))
        table_cls = getattr(sys.modules.get("bohrcc.quadrature"), "AntiderivativeTable", None)
        if table_cls is not None:
            self._wrap_table(table_cls)

    def _wrap_table(self, cls) -> None:
        tracer = self
        init = cls.__init__

        def traced_init(table, *args, **kwargs):
            if not tracer.enabled:
                return init(table, *args, **kwargs)
            frame = tracer._enter(TABLE)
            try:
                init(table, *args, **kwargs)
            finally:
                tracer._exit(TABLE, frame)
            tracer.counts[TABLE + ".builds"] += 1
            tracer.counts[TABLE + ".panels"] += len(getattr(table, "pieces", ()))

        traced_init.__wrapped__ = init
        cls.__init__ = traced_init
        self._undo.append((cls, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = dict(self.counts)
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        return out

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines: a header naming the columns and
        the span-name table, then one [op, name, start, end, parent] row
        per span.  Returns the number of spans."""
        n = len(self.span_start)
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["op", "name", "start", "end", "parent"], "names": self.names}))
            fh.write("\n")
            for i in range(n):
                fh.write(
                    f"[{self.span_op[i]},{self.span_name[i]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]}]\n"
                )
        return n
