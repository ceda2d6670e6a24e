"""The bit-dump gate: every radius bit of 1,012 cold solves, one digest per
class, and of 50 corollary solves, one digest for them all.

The pairs are the 24 canonical ones, the benchmark's 12 edge inputs, its
960 box draws of seeds 1-40 and four Janowski specs with B > 0 (whose phi
mixes signs) in every class.  Each pair is solved at order 64 and tol
1e-10, as the benchmark solves it, with every package cache cleared first.
A result contributes (r_f, residual, bracket) as ``float.hex``, a failure its
error class and message, so a change that moves one bit of one pair, or
turns a radius into an error, changes its class's digest.

The corollary cases are the ``CLOSED_FORM_BITS`` pins of ``test_solver``
and the 34 rows of tables 1 and 4 (sc-lemniscate by s, sc-janowski by
(A, B)), each a ``solve_corollary_closed_form`` line in the same form.

Run as a script, ``PYTHONPATH=src python tests/test_solve_bits.py``
prints the 1,062 dump lines in order, so a change that means to move
radius bits can diff the dumps of two trees line by line before it
re-records the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest
from _bench_inputs import BENCH_INPUTS
from test_caches import clear_all
from test_solver import CLOSED_FORM_BITS

from bohrcc.catalog import PhiSpec
from bohrcc.errors import BohrccError
from bohrcc.reference import TABLE1, TABLE4
from bohrcc.solver import ClassId, solve_corollary_closed_form, solve_radius

SOLVE_BITS_PINS = json.loads(
    (Path(__file__).parent / "golden" / "solve_bits_sha256.json").read_text()
)

JANOWSKI = [(0.5, 0.3), (0.9, 0.5), (0.2, 0.1), (1.0, 0.999)]


def bit_dump_pairs() -> list[tuple[str, str, tuple[float, ...]]]:
    """The 1,012 (class, family, params) triples, in dump order."""
    pairs = [(c, f, p) for c in BENCH_INPUTS.CLASSES for f, p in BENCH_INPUTS.CANONICAL]
    pairs += list(BENCH_INPUTS.EDGE)
    for seed in range(1, 41):
        pairs += BENCH_INPUTS.box_draws(seed)
    pairs += [(c, "janowski", p) for c in BENCH_INPUTS.CLASSES for p in JANOWSKI]
    return pairs


def corollary_cases() -> list[tuple[str, dict[str, float]]]:
    """The 50 (equation, params) corollary cases, in dump order."""
    cases = [(eid, params) for eid, params, _ in CLOSED_FORM_BITS]
    cases += [("sc-lemniscate", {"s": s}) for s, _ in TABLE1]
    cases += [("sc-janowski", {"A": a, "B": b}) for a, b, _ in TABLE4]
    return cases


def _line(head: str, solve) -> str:
    """``head`` and the result of one cold solve as hex floats, or its error."""
    clear_all()
    try:
        res = solve()
    except BohrccError as exc:
        return f"{head} {type(exc).__name__}: {exc}"
    floats = (res.r_f, res.residual, *res.bracket)
    return f"{head} " + " ".join(x.hex() for x in floats)


def solve_line(cls: str, family: str, params: tuple[float, ...]) -> str:
    """One cold solve as a line of hex floats, or of its error."""
    spec = PhiSpec(family, params)
    return _line(f"{cls} {spec.label()}", lambda: solve_radius(ClassId.parse(cls), spec, 64, 1e-10))


def corollary_line(eid: str, params: dict[str, float]) -> str:
    """One cold corollary solve as a line of hex floats, or of its error."""
    return _line(f"corollary {eid} {params}", lambda: solve_corollary_closed_form(eid, params))


def dump_lines() -> list[str]:
    """The dump line of every pair, in pair order, then of every corollary case."""
    lines = [solve_line(*pair) for pair in bit_dump_pairs()]
    lines += [corollary_line(*case) for case in corollary_cases()]
    clear_all()
    return lines


def digests() -> dict[str, str]:
    """sha256 of each class's dump lines and of the corollary lines, each
    group joined in dump order."""
    lines = {c: [] for c in (*BENCH_INPUTS.CLASSES, "corollary")}
    for line in dump_lines():
        lines[line.split(" ", 1)[0]].append(line)
    return {c: hashlib.sha256("\n".join(v).encode()).hexdigest() for c, v in lines.items()}


def test_the_pair_set():
    pairs = bit_dump_pairs()
    assert len(pairs) == 1012
    assert {c: sum(p[0] == c for p in pairs) for c in BENCH_INPUTS.CLASSES} == {
        "Ks": 250,
        "Sc": 254,
        "Cc": 254,
        "Cs": 254,
    }
    assert len(corollary_cases()) == 50


@pytest.mark.slow
def test_every_radius_bit_is_pinned():
    assert digests() == SOLVE_BITS_PINS


if __name__ == "__main__":
    print("\n".join(dump_lines()))
