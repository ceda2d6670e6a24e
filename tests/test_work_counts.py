"""The work-count gate: what the 24 canonical cold solves cost, counted.

Each (class, spec) pair of the benchmark's canonical set is solved at
order 64 and tol 1e-10, as the benchmark solves it, with every package
cache cleared first.  Five counts are taken per pair:

* ``quad_calls`` and ``quad_neval``: QUADPACK calls and their integrand
  evaluations, counted at ``quadrature._quad``, which ``integrate_1d`` and
  the outer rule of ``integrate_nested`` both call;
* ``table_builds`` and ``table_panels``: ``AntiderivativeTable`` builds
  and their accepted panels (the nested inner tables and the ``strongly``
  growth table);
* ``lhs_at_calls``: calls of ``solver.lhs_at``.

Counts repeat exactly, unlike wall time, so a pair whose count rises above
``golden/work_counts.json`` fails; a count that falls passes.  A change
that does more work on purpose re-records the file.

Run as a script, ``PYTHONPATH=src python tests/test_work_counts.py``
prints one line of counts per pair, so the counts of two trees can be
diffed; ``--record`` rewrites the golden file from this tree.
"""

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from _bench_inputs import BENCH_INPUTS
from test_caches import clear_all

from bohrcc import quadrature, solver
from bohrcc.catalog import PhiSpec
from bohrcc.quadrature import AntiderivativeTable
from bohrcc.solver import ClassId, solve_radius

GOLDEN = Path(__file__).parent / "golden" / "work_counts.json"
COUNTS = ("quad_calls", "quad_neval", "table_builds", "table_panels", "lhs_at_calls")
PAIRS = [(c, PhiSpec(f, p)) for c in BENCH_INPUTS.CLASSES for f, p in BENCH_INPUTS.CANONICAL]


def _key(cls: str, spec: PhiSpec) -> str:
    return f"{cls} {spec.label()}"


@contextmanager
def _counting(counts: Counter):
    """Count the work of the block into ``counts`` by wrapping the three
    counted callables, and restore them on the way out."""
    quad, init, lhs_at = quadrature._quad, AntiderivativeTable.__init__, solver.lhs_at

    def counted_quad(*args):
        out = quad(*args)
        counts["quad_calls"] += 1
        counts["quad_neval"] += out[2]
        return out

    def counted_init(self, *args):
        init(self, *args)
        counts["table_builds"] += 1
        counts["table_panels"] += len(self.pieces)

    def counted_lhs_at(*args, **kwargs):
        counts["lhs_at_calls"] += 1
        return lhs_at(*args, **kwargs)

    quadrature._quad, AntiderivativeTable.__init__, solver.lhs_at = (
        counted_quad,
        counted_init,
        counted_lhs_at,
    )
    try:
        yield counts
    finally:
        quadrature._quad, AntiderivativeTable.__init__, solver.lhs_at = quad, init, lhs_at


def cold_counts(cls: str, spec: PhiSpec) -> dict[str, int]:
    """The five counts of one cold solve, every package cache cleared first."""
    clear_all()
    try:
        with _counting(Counter()) as counts:
            solve_radius(ClassId.parse(cls), spec, 64, 1e-10)
    finally:
        clear_all()
    return {name: counts[name] for name in COUNTS}


def all_counts() -> dict[str, dict[str, int]]:
    return {_key(cls, spec): cold_counts(cls, spec) for cls, spec in PAIRS}


def test_the_golden_file_names_the_24_pairs():
    assert list(json.loads(GOLDEN.read_text())) == [_key(c, s) for c, s in PAIRS]


@pytest.mark.parametrize("cls, spec", PAIRS, ids=[_key(c, s) for c, s in PAIRS])
def test_a_cold_solve_does_no_more_work_than_recorded(cls, spec):
    pinned = json.loads(GOLDEN.read_text())[_key(cls, spec)]
    got = cold_counts(cls, spec)
    rises = {name: (pinned[name], got[name]) for name in COUNTS if got[name] > pinned[name]}
    assert not rises, f"work rose (recorded, now): {rises}"


if __name__ == "__main__":
    counts = all_counts()
    for key, c in counts.items():
        print(key, *(f"{name}={c[name]}" for name in COUNTS))
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(counts, indent=1) + "\n")
    elif sys.argv[1:]:
        sys.exit("usage: test_work_counts.py [--record]")
