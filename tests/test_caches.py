import importlib
import pkgutil

import bohrcc
from bohrcc import solver
from bohrcc.catalog import SPEC_CACHE_SIZE, sakaguchi
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
        "solver.lhs_integrand",
        "extremal.build_extremal",
        "extremal._growth_table",
        "solver._series_lhs_curve",
        "solver._series_distance_curve",
        "solver.target_constant",
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
            "extremal.build_extremal",
            "solver.target_constant",
            "solver._series_lhs_curve",
            "solver._series_distance_curve",
            "solver.lhs_integrand",
            "catalog.majorant_phi_evaluator",
            "extremal.k_prime_evaluator",
        ):
            assert infos[name].misses == 300, name
            assert infos[name].currsize == SPEC_CACHE_SIZE, name
        assert all(info.currsize <= SPEC_CACHE_SIZE for info in infos.values())
    finally:
        clear_all()
