"""The bit-dump gate: every radius bit of 1,012 cold solves, one digest per class.

The pairs are the 24 canonical ones, the benchmark's 12 edge inputs, its
960 box draws of seeds 1-40 and four Janowski specs with B > 0 (whose phi
mixes signs) in every class.  Each pair is solved at order 64 and tol
1e-10, as the benchmark solves it, with every package cache cleared first.
A result contributes (r_f, residual, bracket) as ``float.hex``, a failure its
error class and message, so a change that moves one bit of one pair, or
turns a radius into an error, changes its class's digest.

Run as a script, ``PYTHONPATH=src python tests/test_solve_bits.py``
prints the 1,012 dump lines in pair order, so a change that means to move
radius bits can diff the dumps of two trees line by line before it
re-records the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest
from _bench_inputs import BENCH_INPUTS
from test_caches import clear_all

from bohrcc.catalog import PhiSpec
from bohrcc.errors import BohrccError
from bohrcc.solver import ClassId, solve_radius

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


def solve_line(cls: str, family: str, params: tuple[float, ...]) -> str:
    """One cold solve as a line of hex floats, or of its error."""
    spec = PhiSpec(family, params)
    clear_all()
    try:
        res = solve_radius(ClassId.parse(cls), spec, 64, 1e-10)
    except BohrccError as exc:
        return f"{cls} {spec.label()} {type(exc).__name__}: {exc}"
    floats = (res.r_f, res.residual, *res.bracket)
    return f"{cls} {spec.label()} " + " ".join(x.hex() for x in floats)


def dump_lines() -> list[str]:
    """The dump line of every pair, in pair order."""
    lines = [solve_line(*pair) for pair in bit_dump_pairs()]
    clear_all()
    return lines


def class_digests() -> dict[str, str]:
    """sha256 of each class's dump lines, joined in pair order."""
    lines = {c: [] for c in BENCH_INPUTS.CLASSES}
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


@pytest.mark.slow
def test_every_radius_bit_is_pinned():
    assert class_digests() == SOLVE_BITS_PINS


if __name__ == "__main__":
    print("\n".join(dump_lines()))
