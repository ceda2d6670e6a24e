"""Bohr radii for close-to-convex function classes.

A function class satisfies the Bohr phenomenon at radius r when, for
every member f(z) = z + a_2 z^2 + ..., the coefficient-modulus sum
``r + sum |a_n| r^n`` stays below the Euclidean distance from f(0) to
the boundary of the image domain.  This package computes the largest
such radius (capped at the universal 1/3) for four classes defined by
subordination to a catalog of shape functions, and empirically verifies
the resulting inequality on explicitly constructed class members.

Main entry points:

* :func:`bohrcc.solver.solve_radius` -- radius for a (class, spec) pair
* :func:`bohrcc.verifier.run_campaign` -- seeded verification campaign, and
  :func:`bohrcc.verifier.check_bohr` -- the bound on one sampled member
* ``python -m bohrcc`` / the ``bohrcc`` script -- CLI over both

Importing the package loads neither numpy nor scipy: numpy loads at the
first array operation, scipy's QUADPACK extension at the first integral,
and :mod:`bohrcc.verifier` at the first use of one of its names.  So the
commands that evaluate only closed formulas (``table 1``, ``2`` and ``4``
and the Sc scans) load none of them.
"""

from .catalog import (
    PhiSpec,
    expblend,
    janowski,
    lemniscate,
    sakaguchi,
    strongly,
    wang,
)
from .extremal import ExtremalSet, build_extremal
from .solver import (
    ClassId,
    RadiusResult,
    solve_corollary_closed_form,
    solve_radius,
    threshold_scan,
)

__version__ = "0.1.0"

#: names that load :mod:`bohrcc.verifier` on first use, so a command that
#: never verifies never imports it
_VERIFIER_NAMES = ("SelfMap", "sample_member", "check_bohr", "run_campaign")

__all__ = [
    "PhiSpec",
    "janowski",
    "sakaguchi",
    "lemniscate",
    "expblend",
    "strongly",
    "wang",
    "ExtremalSet",
    "build_extremal",
    "ClassId",
    "RadiusResult",
    "solve_radius",
    "solve_corollary_closed_form",
    "threshold_scan",
    "SelfMap",
    "sample_member",
    "check_bohr",
    "run_campaign",
    "__version__",
]


def __getattr__(name):
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
