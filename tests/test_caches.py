import importlib
import pkgutil

import numpy as np
import pytest

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


def test_every_cache_is_bounded():
    caches = package_caches()
    assert {
        "catalog.has_positive_coeffs",
        "catalog.phi_evaluator",
        "catalog.majorant_phi_evaluator",
        "extremal.growth_evaluator",
        "extremal.k_prime_evaluator",
        "solver._lhs_integrand",
        "extremal._build_extremal",
        "extremal._growth_table",
        "solver._series_lhs_curve",
        "solver._series_distance_curve",
        "solver._target_constant",
        "solver._solve_cached",
    } <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize == SPEC_CACHE_SIZE, name


def test_sweep_over_many_specs_stays_bounded():
    clear_all()
    try:
        for i in range(300):
            spec = sakaguchi(0.75 * i / 300)
            solver.target_constant(ClassId.SC, spec, 8)
            solver.lhs_at(ClassId.SC, spec, 0.2, "series", 8)
            solver.distance_integral_at(ClassId.KS, spec, 0.2, "series", 8)
            solver.lhs_integrand(ClassId.SC, spec, 8)(0.2)
        infos = {name: c.cache_info() for name, c in package_caches().items()}
        for name in (
            "extremal._build_extremal",
            "solver._target_constant",
            "solver._series_lhs_curve",
            "solver._series_distance_curve",
            "solver._lhs_integrand",
            "catalog.majorant_phi_evaluator",
            "extremal.k_prime_evaluator",
        ):
            assert infos[name].misses == 300, name
            assert infos[name].currsize == SPEC_CACHE_SIZE, name
        assert all(info.currsize <= SPEC_CACHE_SIZE for info in infos.values())
    finally:
        clear_all()


def test_caches_key_on_values_not_on_spelling():
    # each spelling of the same call, a numpy integer order included, is one entry
    spec = strongly(0.5)
    cases = [
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
        (
            solver.lhs_integrand,
            solver._lhs_integrand,
            [
                (ClassId.CC, spec),
                (ClassId.CC, spec, 64),
                (ClassId.CC, spec),
                (ClassId.CC, spec, np.int64(64)),
            ],
            [{}, {}, {"order": 64}, {}],
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
    # no order to spell: the check reads phi at the default order, one entry per spec
    spec = strongly(0.5)
    with pytest.raises(TypeError):
        catalog.has_positive_coeffs(spec, 64)
    with pytest.raises(TypeError):
        catalog.has_positive_coeffs(spec, order=64)
    clear_all()
    try:
        assert all(catalog.has_positive_coeffs(spec) for _ in range(3))
        info = catalog.has_positive_coeffs.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    finally:
        clear_all()
