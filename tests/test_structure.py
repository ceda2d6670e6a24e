"""Structure rules for ``src/bohrcc``, checked on its source text.

``src/`` holds production code only: every module-level function, class
and constant is referenced somewhere else in the package, or is part of
the public surface (``bohrcc.__all__`` and the ``bohrcc`` script's
``cli.run``).  Code that only tests call lives under ``tests/``, the
second evaluation routes among it in ``tests/routes.py``.

The grep rules below keep each piece of knowledge in its one place: a
family's formulas in the catalog's ``FAMILIES`` records, a class's kernel
in ``solver.kernel_series`` and its transform T in ``ClassId`` (``nested``
and ``transform``), K' in ``extremal.extremal_kernels``, one evaluator
form per pointwise quantity, a family's parameters behind
``catalog.as_janowski`` and ``formulas_of`` for the solver, the integer
and real argument checks in ``errors.as_int`` and ``as_real``, and the test
"root at most 1/3" in ``solver._root_at_most_third``, with no slack.  The
solver's one loop is the bisection in ``solver._bisect``.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bohrcc"

#: entry points outside ``__all__``: the ``bohrcc`` script (pyproject.toml)
ENTRY_POINTS = {"run"}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _defined(statement: ast.stmt) -> list[str]:
    """The module-level names a statement defines: a function, a class or
    an assigned constant (imports are not definitions)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node: ast.AST) -> set[str]:
    """Every identifier a node reads: names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _public_names(modules: dict[str, ast.Module]) -> set[str]:
    for statement in modules["__init__.py"].body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets
        ):
            return set(ast.literal_eval(statement.value))
    raise AssertionError("bohrcc/__init__.py defines no __all__")


def unreferenced_names(modules: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each module-level definition that no other
    top-level statement of the package reads (a name is matched by its
    identifier alone, whichever module reads it)."""
    readers = defaultdict(set)  # identifier -> the (module, statement) pairs reading it
    for module, tree in modules.items():
        for i, statement in enumerate(tree.body):
            for name in _referenced(statement):
                readers[name].add((module, i))
    allowed = _public_names(modules) | ENTRY_POINTS
    found = []
    for module, tree in modules.items():
        for i, statement in enumerate(tree.body):
            for name in _defined(statement):
                dunder = name.startswith("__") and name.endswith("__")  # read by the interpreter
                if not dunder and name not in allowed and not readers[name] - {(module, i)}:
                    found.append(f"{module.removesuffix('.py')}.{name}")
    return found


def test_every_module_level_name_has_a_production_reader():
    found = unreferenced_names(_modules())
    assert not found, (
        f"defined in src/bohrcc but read nowhere else there: {found}; "
        "delete it, move a test-only helper to tests/, or export it in bohrcc.__all__"
    )


def test_the_scan_flags_a_name_only_its_definition_reads():
    tree = ast.parse(
        "LIMIT = 3\n"
        "def used(x):\n    return helper(x) + LIMIT\n"
        "def helper(x):\n    return x\n"
        "def orphan(x):\n    return orphan(x - 1)\n"
        "class Kept:\n    pass\n"
        "__all__ = ['used', 'Kept']\n"
    )
    assert unreferenced_names({"__init__.py": tree}) == ["__init__.orphan"]


def _py_files(*names: str) -> list[Path]:
    return [SRC / name for name in names] if names else sorted(SRC.rglob("*.py"))


#: (pattern, the files it must not match, files exempt from it, why)
GREP_RULES = {
    "family-dispatch": (
        r"family (==|!=|in) ",
        (),
        (),
        "branch on a family name: add a field to catalog.Family instead",
    ),
    "verifier-names-a-class": (
        r"ClassId\.(KS|SC|CC|CS)|from \.extremal import",
        ("verifier.py",),
        (),
        "verifier.py names a class or the extremal bundle: read solver.kernel_series and ClassId.transform",
    ),
    "one-K-prime-builder": (
        r"extremal_kernels\(|\bK_prime\s*=",
        (),
        ("extremal.py",),
        "K' built outside extremal.py: k' and K' are built once, in extremal.extremal_kernels",
    ),
    "no-series-square-root": (
        r"sqrt_series|compose_with_selfmap",
        (),
        (),
        "K' is exp(G(z^2)/2), built in extremal.extremal_kernels: the series square root "
        "and composition are test oracles in tests/routes.py",
    ),
    "extremal-reads-a-family": (
        r"as_janowski",
        ("extremal.py",),
        (),
        "extremal.py reads a family: add a formula to catalog.Family and read it through formulas_of",
    ),
    "formula-attribute": (
        r"\.formula\s*=",
        (),
        (),
        "a function attribute carries a formula: build it once in a private builder instead",
    ),
    "solver-reads-no-family-parameter": (
        r"\.params\b|param_dict\(",
        ("solver.py",),
        (),
        "solver.py reads a family parameter: take it through catalog.as_janowski or formulas_of",
    ),
    "one-argument-checker": (
        r"operator\.index\(|isinstance\([^)]*\bbool\b",
        (),
        ("errors.py",),
        "a hand-written integer or bool check: route the argument through errors.as_int or as_real",
    ),
    "one-third-has-no-slack": (
        r"_ONE_THIRD\s*[-+]",
        ("solver.py",),
        (),
        "a slack on 1/3: decide \"root at most 1/3\" by solver._root_at_most_third alone",
    ),
    "no-dataclasses": (
        r"^\s*(import|from)\s+dataclasses\b",
        (),
        (),
        "a dataclasses import: a frozen dataclass exec-s generated code when defined and loads "
        "inspect; write a typing.NamedTuple or a _record.Record subclass",
    ),
    "nan-blind-disk-guard": (
        r"abs\([^)]*\)\s*>=\s*1",
        (),
        (),
        "a guard abs(x) >= 1 lets NaN through: write it as not abs(x) < 1.0",
    ),
    "spec-keyed-wrapper": (
        r"def ((phi|majorant_phi|h|k_prime|K_prime|eval)_at|growth_exponent)\b",
        (),
        (),
        "an _at wrapper that rebuilds an evaluator per call: bind the evaluator once instead",
    ),
}


@pytest.mark.parametrize("rule", sorted(GREP_RULES))
def test_grep_rule(rule):
    pattern, names, exempt, why = GREP_RULES[rule]
    regex = re.compile(pattern)
    hits = [
        f"{path.relative_to(SRC.parent.parent)}:{n}: {line.strip()}"
        for path in _py_files(*names)
        if path.name not in exempt
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]
    assert not hits, why + "\n" + "\n".join(hits)


def test_the_script_and_python_m_share_one_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"bohrcc": "bohrcc.cli:run"}
    assert (SRC / "__main__.py").read_text().endswith("\nfrom .cli import run\n\nsys.exit(run())\n")


def test_the_one_loop_in_solver_is_the_bisection():
    tree = _modules()["solver.py"]
    bisect = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_bisect")
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert len(loops) == 1 and loops[0] in list(ast.walk(bisect)), (
        "solver.py has a while loop outside _bisect: bracket every root and threshold with _bisect"
    )
