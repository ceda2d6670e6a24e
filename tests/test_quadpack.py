"""QUADPACK is loaded without scipy.integrate and called as scipy.integrate.quad
calls it: the same values, error estimates and evaluation counts, bit for bit.
scipy.integrate.quad is the oracle here.

The extension is found in the directory that ``importlib.util.find_spec``
gives for scipy, so importing bohrcc runs no scipy ``__init__``; scipy's
package loads when QUADPACK first runs, and a command that never integrates
(``table 1..4``) never loads it.  numpy too loads on first use, so the
commands that evaluate only closed formulas (``table 1``, ``2`` and ``4``
and the Sc scans) never load it."""

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy
from scipy.integrate import quad

from bohrcc import quadrature
from bohrcc.catalog import strongly, wang
from bohrcc.errors import BudgetError, DomainError
from bohrcc.quadrature import integrate_1d, integrate_nested
from bohrcc.solver import ClassId, distance_integrand, lhs_integrand

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: (integrand, a, b, tol): the canonical Ks lhs and distance integrands, a
#: smooth, an oscillating and an endpoint-singular one, and a near pole whose
#: integral (about 9.2) is large enough that qagse stops on epsrel, not tol
PARITY_CASES = {
    "ks-lhs-strongly": (lhs_integrand(ClassId.KS, strongly(0.5)), 0.0, 0.3, 1e-10),
    "ks-distance-wang": (distance_integrand(ClassId.KS, wang(0.5, 1.0)), 0.0, 1.0, 1e-10),
    "cs-distance-strongly": (distance_integrand(ClassId.CS, strongly(0.5)), 0.0, 1.0, 1e-11),
    "exp": (math.exp, -0.4, 0.9, 1e-12),
    "oscillating": (lambda t: math.sin(50 * t) ** 2, 0.0, 1.0, 1e-10),
    "sqrt": (math.sqrt, 0.0, 1.0, 1e-11),
    "near-pole": (lambda t: 1.0 / (1.0001 - t), 0.0, 1.0, 1e-12),
}


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports bohrcc from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("case", PARITY_CASES)
def test_integrate_1d_matches_scipy_quad(case):
    f, a, b, tol = PARITY_CASES[case]
    got = integrate_1d(f, a, b, tol)
    value, abserr, info = quad(f, a, b, epsabs=tol, epsrel=1e-13, limit=300, full_output=True)
    assert got.value.hex() == value.hex()
    assert got.abs_error_estimate.hex() == abserr.hex()
    assert got.evaluations == info["neval"]


@pytest.mark.parametrize(
    "f, message, reason",
    [
        (lambda t: math.sin(1.0 / t) if t else 0.0, "The maximum number of subdivisions (300)", "1, subdivision limit reached"),
        (lambda t: math.sin(1e4 * t), "The integral is probably divergent", "5, integral probably divergent"),
    ],
    ids=["ier-1", "ier-5"],
)
def test_an_uncertified_result_is_a_budget_error(f, message, reason):
    value, abserr, _, said = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300, full_output=True)
    assert said.startswith(message)
    want = rf"^quadrature error estimate .* exceeds tol 1e-14: QUADPACK ier={reason}$"
    with pytest.raises(BudgetError, match=want) as exc:
        integrate_1d(f, 0.0, 1.0, 1e-14)
    assert (exc.value.best.hex(), exc.value.error_estimate.hex()) == (value.hex(), abserr.hex())


def test_domain_error_in_the_integrand_propagates():
    def f(t):
        if t > 0.5:
            raise DomainError(f"outside the domain at {t}")
        return t

    with pytest.raises(DomainError, match="^outside the domain at "):
        integrate_1d(f, 0.0, 1.0, 1e-10)


def test_domain_error_in_the_outer_rule_propagates():
    # the table's Chebyshev nodes never hit 0; below the cutoff every outer
    # node reads inner(0.0), so the error is raised under the outer QUADPACK call
    def inner(t):
        if t == 0.0:
            raise DomainError("inner read at 0")
        return 1.0

    with pytest.raises(DomainError, match="^inner read at 0$"):
        integrate_nested(inner, 1e-9, 1e-10)


class _NoFinder:
    @staticmethod
    def find_spec(name, path):
        return None


@pytest.mark.parametrize(
    "attr, stand_in, missing",
    [
        ("PathFinder", _NoFinder, "has no compiled integrate/_quadpack extension"),
        ("module_from_spec", lambda spec: types.ModuleType(spec.name), "integrate/_quadpack has no _qagse"),
    ],
    ids=["no-extension", "no-qagse"],
)
def test_a_missing_quadpack_is_an_import_error(monkeypatch, attr, stand_in, missing):
    # no fallback to scipy.integrate: the error names the scipy version
    monkeypatch.setattr(quadrature, attr, stand_in)
    with pytest.raises(ImportError, match=f"^scipy {scipy.__version__}('s)? .*{missing}$"):
        quadrature._load_qagse()


#: a fresh interpreter's view of what is loaded, and one CLI command run in it
_PRELUDE = (
    "import contextlib, io, sys\n"
    "import bohrcc, bohrcc.cli\n"
    "def loaded(*names):\n"
    "    return sorted(m for m in names if m in sys.modules)\n"
    "def numpy_loaded():\n"  # sys.modules['numpy'] is bound from import on
    "    return any(m.startswith('numpy.') for m in sys.modules)\n"
    "def run(*argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert bohrcc.cli.main(list(argv)) == 0\n"
)

#: the pinned Sc scans: each solves h(r) = -h(-1) from a closed h
SC_SCANS = [c.split() for c in json.loads((GOLDEN / "scan_sha256.json").read_text()) if "sc-" in c]

CC_RADIUS = ["radius", "--class", "Cc", "--phi", "janowski", "--A", "1", "--B", "-1"]


def test_import_leaves_scipy_integrate_unloaded():
    # tables 1, 2 and 4 and the Sc scans evaluate closed math formulas, so
    # they load neither numpy nor scipy nor the verifier; table 3 builds
    # strongly's growth table with numpy, but never integrates; a Cc radius
    # integrates its lhs by nested quadrature, so QUADPACK runs and its first
    # call imports scipy's package, but not scipy.integrate
    assert len(SC_SCANS) == 4
    out = _run_fresh(
        _PRELUDE
        + "print(loaded('scipy', 'bohrcc.verifier'), numpy_loaded())\n"
        "for n in '124':\n"
        "    run('table', n)\n"
        f"for argv in {SC_SCANS!r}:\n"
        "    run(*argv)\n"
        "print(loaded('scipy', 'bohrcc.verifier'), numpy_loaded())\n"
        "run('table', '3')\n"
        "print(loaded('scipy', 'numpy.polynomial', 'bohrcc.verifier'), numpy_loaded())\n"
        f"run(*{CC_RADIUS!r})\n"
        "print(loaded('scipy', 'scipy.integrate', 'scipy.special', 'scipy.optimize'))\n"
        "names = {}\n"
        "exec('from bohrcc import *', names)\n"
        "print(sorted(set(bohrcc.__all__) - set(names)), 'bohrcc.verifier' in sys.modules)\n"
    )
    assert out == "[] False\n[] False\n[] True\n['scipy']\n[] True\n"
    # a radius alone loads numpy, and numpy imported after the package is
    # the ordinary module, the package's own binding included
    assert _run_fresh(_PRELUDE + f"run(*{CC_RADIUS!r})\nprint(numpy_loaded())\n") == "True\n"
    out = _run_fresh(
        "import sys, types\n"
        "import bohrcc, numpy\n"
        "print(numpy.zeros(3).tolist(), type(numpy) is types.ModuleType)\n"
        "print(numpy is sys.modules['numpy'] is bohrcc.power_series.np is bohrcc.solver.np)\n"
    )
    assert out == "[0.0, 0.0, 0.0] True\nTrue\n"


def test_cs_solve_bits_survive_importing_scipy_integrate():
    # scipy.integrate loads the same extension a second time, under its own name
    out = _run_fresh(
        "import sys\n"
        "import bohrcc\n"
        "from bohrcc import ClassId, solve_radius, strongly\n"
        "def solve():\n"
        "    for mod in [m for n, m in sys.modules.items() if n.startswith('bohrcc')]:\n"
        "        for obj in vars(mod).values():\n"
        "            getattr(obj, 'cache_clear', lambda: None)()\n"
        "    res = solve_radius(ClassId.CS, strongly(0.5))\n"
        "    return res.r_f.hex(), res.residual.hex()\n"
        "before = solve()\n"
        "import scipy.integrate\n"
        "print(before == solve(), before)\n"
    )
    assert out.startswith("True (")
