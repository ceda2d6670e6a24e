import importlib
import pkgutil

import numpy as np
import pytest
import routes

import bohrcc
from bohrcc import catalog, extremal, solver
from bohrcc.catalog import SPEC_CACHE_SIZE, sakaguchi, strongly
from bohrcc.solver import ClassId


def package_caches():
    """Every module-level lru_cache in bohrcc.*, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(bohrcc.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"bohrcc.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def clear_all():
    for cache in package_caches().values():
        cache.cache_clear()


#: the package's spec caches: each holds work that a workload reuses (phi's
#: series, a bundle, a table, a target or a solve), never a closure that
#: rebuilds in microseconds, such as a spec's lhs integrand
KEPT = {
    "catalog._phi_series",
    "extremal._build_extremal",
    "extremal._growth_table",
    "solver._target_constant",
    "solver._solve_cached",
}


def test_the_caches_are_the_kept_five():
    assert set(package_caches()) == KEPT


def test_every_cache_is_bounded():
    caches = package_caches()
    assert KEPT <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize == SPEC_CACHE_SIZE, name


def test_sweep_over_many_specs_stays_bounded():
    clear_all()
    try:
        for i in range(300):
            spec = sakaguchi(0.75 * i / 300)
            solver.target_constant(ClassId.SC, spec, 8)
            solver.lhs_at(ClassId.SC, spec, 0.2, "series", 8)
            routes.distance_integral_at(ClassId.KS, spec, 0.2, "series", 8)
            solver.lhs_integrand(ClassId.SC, spec, 8)(0.2)
        infos = {name: c.cache_info() for name, c in package_caches().items()}
        for name in ("extremal._build_extremal", "solver._target_constant"):
            assert infos[name].misses == 300, name
            assert infos[name].currsize == SPEC_CACHE_SIZE, name
        # phi at the sweep's order 8 only: the positivity check builds no series
        assert infos["catalog._phi_series"].misses == 300
        assert infos["catalog._phi_series"].currsize == SPEC_CACHE_SIZE
        assert all(info.currsize <= SPEC_CACHE_SIZE for info in infos.values())
    finally:
        clear_all()


def test_caches_key_on_values_not_on_spelling():
    # each spelling of the same call, a numpy integer order included, is one entry
    spec = strongly(0.5)
    cases = [
        (
            catalog.phi_series,
            catalog._phi_series,
            [(spec,), (spec, 64), (spec,), (spec, np.int64(64))],
            [{}, {}, {"order": 64}, {}],
        ),
        (
            extremal.build_extremal,
            extremal._build_extremal,
            [(spec,), (spec, 64), (spec,), (spec, np.int64(64))],
            [{}, {}, {"order": 64}, {}],
        ),
        (
            solver.target_constant,
            solver._target_constant,
            [
                (ClassId.CS, spec),
                (ClassId.CS, spec, 64, 1e-10),
                (ClassId.CS, spec),
                (ClassId.CS, spec, np.int64(64)),
            ],
            [{}, {}, {"order": 64, "tol": 1e-10}, {"tol": np.float64(1e-10)}],
        ),
    ]
    clear_all()
    try:
        for public, cache, args, kwargs in cases:
            results = [public(*a, **k) for a, k in zip(args, kwargs)]
            assert all(r is results[0] for r in results), public.__name__
            info = cache.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 3, 1), public.__name__
    finally:
        clear_all()


def test_positive_coefficient_check_takes_the_spec_only():
    # no order to spell: the check reads the family record, and no series
    spec = strongly(0.5)
    with pytest.raises(TypeError):
        catalog.has_positive_coeffs(spec, 64)
    with pytest.raises(TypeError):
        catalog.has_positive_coeffs(spec, order=64)
    clear_all()
    try:
        assert all(catalog.has_positive_coeffs(spec) for _ in range(3))
        info = catalog._phi_series.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
    finally:
        clear_all()
