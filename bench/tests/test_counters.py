"""The traced counters repeat exactly and the wrappers reach every binding.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import Tracer, package_caches  # noqa: E402

DETERMINISTIC = (
    "quadpack.quad.calls",
    "quadpack.quad.evals",
    "quadrature.AntiderivativeTable.panels",
    "solver.lhs_at.calls",
)


def _short_traced_pass(workload_cls, pick):
    """A fresh-process stand-in: empty caches, set up, trace a few ops."""
    run.inputs.import_package()
    for cache in package_caches().values():
        cache.cache_clear()
    wl = workload_cls(7)
    wl.setup()
    wl.ops = [wl.ops[i] for i in pick]
    tracer = Tracer()
    tracer.install()
    try:
        results = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert not [r for r in results if r.mismatch or r.error]
    counters = tracer.layer_metrics()
    return {k: counters.get(k, 0) for k in DETERMINISTIC}, wl.cache_delta


# one canonical op per class: 1-D quadrature for Ks/Sc, nested for Cc/Cs
SOLVE_PICK = (0, 6, 12, 18)
CAMPAIGN_PICK = (2, 8, 14, 20)


def test_solve_cold_counters_repeat_and_reach_quad():
    first = _short_traced_pass(run.SolveCold, SOLVE_PICK)
    second = _short_traced_pass(run.SolveCold, SOLVE_PICK)
    assert first == second
    counters, caches = first
    assert counters["quadpack.quad.calls"] > 0
    assert counters["quadrature.AntiderivativeTable.panels"] > 0
    assert counters["solver.lhs_at.calls"] > 0
    assert sum(misses for _, misses, _ in caches.values()) > 0


def test_campaign_counters_repeat_and_bypass_quad():
    first = _short_traced_pass(run.Campaign, CAMPAIGN_PICK)
    second = _short_traced_pass(run.Campaign, CAMPAIGN_PICK)
    assert first == second
    counters, _ = first
    assert counters["quadpack.quad.calls"] == 0
    assert counters["quadrature.AntiderivativeTable.panels"] == 0


def test_uninstall_restores_every_binding():
    run.inputs.import_package()
    from bohrcc import quadrature, solver

    original = quadrature.integrate_1d
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.integrate_1d is quadrature.integrate_1d
        assert solver.integrate_1d.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert solver.integrate_1d is original
    assert not hasattr(quadrature.AntiderivativeTable.__init__, "__wrapped__")
