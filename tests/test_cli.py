import argparse
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from _bench_inputs import BENCH_INPUTS

from bohrcc import catalog, cli, extremal, reference, solver
from bohrcc.catalog import lemniscate
from bohrcc.cli import main
from bohrcc.errors import ParameterError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_sharp_janowski(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--class", "Sc", "--phi", "janowski", "--A", "1", "--B", "-1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["r_f"] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-7)
        assert payload["sharp"] is True
        assert payload["spec"] == {"family": "janowski", "params": {"A": 1.0, "B": -1.0}}

    def test_ks_base_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--class", "Ks", "--phi", "sakaguchi", "--gamma", "0"
        )
        assert code == 0
        assert json.loads(out)["r_f"] == pytest.approx(0.257374415, abs=1e-7)

    def test_parameter_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0"
        )
        assert code == 2
        assert "parameter error" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_code(self, capsys, tol):
        code, _, err = run_cli(
            capsys,
            "radius", "--class", "Cc", "--phi", "janowski", "--A", "1", "--B", "-1",
            "--tol", tol,
        )
        assert code == 2
        assert "tolerance must be positive and finite" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--class", "Sc", "--phi", "janowski", "--A", "1")
        assert code == 2 and "requires --B" in err

    def test_extraneous_parameter(self, capsys):
        code, _, err = run_cli(
            capsys,
            "radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--gamma", "0.1",
        )
        assert code == 2 and "does not take" in err

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--class", "Sc", "--phi", "nope", "--s", "0.5"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.001"])
    def test_negative_value_in_exponent_notation(self, capsys, value):
        # argparse's own negative-number pattern has no exponent, which made
        # `--B -1e-3` a usage error where `--B=-1e-3` parsed
        head = ("radius", "--class", "Cc", "--phi", "janowski", "--A", "1")
        spaced = run_cli(capsys, *head, "--B", value)
        assert spaced == run_cli(capsys, *head, f"--B={value}")
        assert spaced == run_cli(capsys, *head, "--B", "-0.001") and spaced[0] == 0

    def test_negative_infinity_stays_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--class", "Cc", "--phi", "janowski", "--A", "1", "--B", "-inf"])
        assert exc.value.code == 2
        assert "argument --B: expected one argument" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        argv = ("radius", "--class", "Cc", "--phi", "lemniscate", "--s", "0.5")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "radius", "--class", "Sc", "--phi", "wang", "--alpha", "0.5", "--beta", "1",
            "--out", "csv",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("class,family,params")
        assert row.startswith("Sc,wang,alpha=0.5;beta=1")

    def test_order_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--order", "48"
        )
        assert code == 0
        r_f = json.loads(out)["r_f"]
        assert r_f == pytest.approx(0.3040402, abs=1e-6)
        assert r_f == float(format(solver.solve_radius(solver.ClassId.SC, lemniscate(0.5), 48).r_f, ".9g"))

    @pytest.mark.parametrize("command", ["radius", "verify"])
    def test_low_order_exits_2(self, capsys, command):
        # the floor is solve_radius's; the flag reaches it
        argv = (command, "--class", "Cs", "--phi", "strongly", "--alpha", "0.5")
        code, out, err = run_cli(capsys, *argv, "--order", "2")
        assert (code, out) == (2, "")
        assert err == "parameter error: order must be at least 8, got 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("radius", "--class", "Ks", "--phi", "wang", "--alpha", "0.5", "--beta", "1"),
            ("verify", "--class", "Cs", "--phi", "strongly", "--alpha", "0.5"),
        ],
        ids=["radius", "verify"],
    )
    def test_order_above_the_cap_exits_2(self, capsys, argv):
        # rejected before any series or kernel matrix of that order is built
        code, out, err = run_cli(capsys, *argv, "--order", "4097")
        assert (code, out) == (2, "")
        assert err == "parameter error: order must be at most 4096, got 4097\n"


def test_radius_warns_when_the_min_max_hypothesis_fails(capsys, monkeypatch):
    # the warning goes to stderr; stdout keeps the golden bytes
    monkeypatch.setattr(catalog, "phi_complex", lambda spec, z: complex(10.0))
    code, out, err = run_cli(capsys, "radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5")
    assert code == 0
    assert out.encode() == (BENCH_INPUTS.GOLDEN / "radius-Sc.out").read_bytes()
    assert err == (
        "warning: |phi| on the circle r=0.30404 is not extremized on the real axis; "
        "the growth bounds assume it\n"
    )


class TestTableCommand:
    def test_table1_diffs_within_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,r_f,reference,diff"
        assert len(lines) == 1 + 14
        for line in lines[1:]:
            _, r_f, ref, diff = line.split(",")
            assert abs(float(r_f) - float(ref)) <= 1e-4
            assert abs(float(diff)) <= 1e-4

    def test_table4_diffs_within_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "table", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 20
        for line in lines[1:]:
            _, _, r_f, ref, diff = line.split(",")
            assert abs(float(r_f) - float(ref)) <= 1e-4

    @pytest.mark.parametrize("table_id,rows", [("2", reference.TABLE2), ("3", reference.TABLE3)])
    def test_growth_tables_signs(self, capsys, table_id, rows):
        code, out, _ = run_cli(capsys, "table", table_id)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == len(rows)
        for line, (_, _, _, sign0, sign3) in zip(lines, rows):
            cells = line.split(",")
            assert cells[7] == sign0
            assert cells[8] == sign3

    def test_json_variant(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["table"] == 2 and len(payload["rows"]) == 8

    @pytest.mark.parametrize("table_id", [0, 5])
    def test_table_id_outside_one_to_four(self, table_id):
        # argparse admits only 1..4; the command itself refuses the rest
        args = argparse.Namespace(id=table_id, out="csv", order=64)
        with pytest.raises(ParameterError, match=f"^table id must be 1..4, got {table_id}$"):
            cli.cmd_table(args)

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "2")
        _, out2, _ = run_cli(capsys, "table", "2")
        assert out1 == out2


class TestVerifyCommand:
    def test_clean_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5",
            "--samples", "25", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        assert payload["schema"] == 1

    def test_violation_beyond_sharp_radius(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5",
            "--samples", "3", "--seed", "1", "--r", "0.34",
        )
        assert code == 4
        assert json.loads(out)["failures"]

    def test_zero_samples_is_parameter_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--samples", "0",
        )
        assert code == 2
        assert "parameter error: need at least one sample, got 0" in err

    def test_radius_out_of_range_is_parameter_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--r", "1.5",
        )
        assert code == 2
        assert out == ""
        assert err == "parameter error: the radius to check must satisfy 0 < r < 1, got 1.5\n"

    def test_negative_seed_is_parameter_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "parameter error: seed must be nonnegative, got -1" in err

    def test_deterministic_bytes(self, capsys):
        argv = (
            "verify", "--class", "Ks", "--phi", "sakaguchi", "--gamma", "0",
            "--samples", "10", "--seed", "9",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestScanCommand:
    def test_lemniscate_threshold_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--equation", "sc-lemniscate",
            "--start", "0.44", "--stop", "0.45", "--step", "0.001",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.4449 < payload["threshold"] < 0.4450
        assert payload["bracket"] is not None

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--equation", "sc-lemniscate",
            "--start", "0.5", "--stop", "0.52", "--step", "0.01", "--out", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,r_f,in_sharp_window"
        assert len(lines) == 4

    def test_negative_start_in_exponent_notation(self, capsys):
        head, tail = ("scan", "--equation", "sc-janowski-b0"), ("--stop", "0.01", "--step", "0.005")
        spaced = run_cli(capsys, *head, "--start", "-1e-3", *tail)
        assert spaced == run_cli(capsys, *head, "--start=-1e-3", *tail)
        assert spaced[0] == 2 and "parameter error: janowski requires" in spaced[2]

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "scan", "--equation", "sc-lemniscate",
            "--start", "0.5", "--stop", "0.4", "--step", "0.01",
        )
        assert code == 2

    @pytest.mark.parametrize("equation", ["ks-wang", "sc-janowski"])
    def test_two_parameter_equation_is_a_usage_error(self, capsys, equation):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--equation", equation, "--start", "0", "--stop", "1", "--step", "0.5"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out, digest",
        [
            ("json", "6d75a5f1955e25807b1632273a2b8d7d89ef72e21daecb406e6877b16e8aeede"),
            ("csv", "5d7bfcb61787cfbee5690deb4083e5f1ef75b1b822d4ea02951efa4dabf8c83c"),
        ],
    )
    def test_expblend_scan_bytes(self, capsys, monkeypatch, out, digest):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sc-expblend scan built an extremal bundle")

        monkeypatch.setattr(solver, "build_extremal", forbidden)  # h(r) and h(-1) need no series
        code, stdout, _ = run_cli(
            capsys,
            "scan", "--equation", "sc-expblend",
            "--start", "0", "--stop", "0.08", "--step", "0.001", "--out", out,
        )
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bounds",
        [
            ("0", "inf", "0.1"),
            ("-inf", "0.5", "0.1"),
            ("nan", "0.5", "0.1"),
            ("0", "0.5", "inf"),
            ("1e20", "2e20", "1"),  # 1e20 + 1 == 1e20: the grid never moves
            ("1", "1.0000000000000002", "1e-21"),  # few steps apart, none moves p
            ("0", "1", "1e-6"),  # a million points
        ],
        ids=["stop-inf", "start-minus-inf", "start-nan", "step-inf", "stuck", "stuck-narrow", "cap"],
    )
    def test_grid_that_never_ends_is_parameter_error(self, capsys, bounds):
        start, stop, step = bounds
        code, out, err = run_cli(
            capsys,
            "scan", "--equation", "sc-lemniscate",
            f"--start={start}", f"--stop={stop}", f"--step={step}",
        )
        assert code == 2 and out == ""
        assert "parameter error: scan" in err


_SCAN_ARGS = (
    "scan", "--equation", "ks-sakaguchi", "--start", "0", "--stop", "0.5", "--step", "0.1",
)


_VERIFY_ARGS = ("verify", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "1", "--tol", "nan"), "unrecognized arguments"),
        (("table", "1", "--order", "64"), "unrecognized arguments"),
        ((*_SCAN_ARGS, "--tol", "nan"), "unrecognized arguments"),
        ((*_SCAN_ARGS, "--order", "64"), "unrecognized arguments"),
        ((*_VERIFY_ARGS, "--out", "json"), "unrecognized arguments: --out json"),  # JSON only
    ],
    ids=["table-tol", "table-order", "scan-tol", "scan-order", "verify-out"],
)
def test_flag_a_command_would_ignore_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


class TestNumericBudgetExit:
    def test_impossible_tolerance_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5",
            "--tol", "1e-300",
        )
        assert code == 3
        assert "numeric error" in err


def test_growth_tables_and_witness_build_no_bundle(capsys, monkeypatch):
    # h(1/3), h(-1), h(r_f) and the table radii, roots of h(r) = -h(-1), come
    # from the spec alone, so neither the tables nor the sharpness witness
    # may run the general solver, build the extremal bundle or integrate a class lhs
    spec = lemniscate(0.5)
    result = solver.solve_radius(solver.ClassId.SC, spec)
    want = solver.sharpness_witness(solver.ClassId.SC, spec, result)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"called {name}")
        return call

    for module in (extremal, solver, cli):
        for name in ("solve_radius", "build_extremal", "integrate_1d", "integrate_nested"):
            monkeypatch.setattr(module, name, forbidden(name), raising=False)
    for tag in ("table1", "table2", "table3", "table4"):
        code, out, _ = run_cli(capsys, "table", tag[-1])
        assert code == 0
        assert out.encode() == (BENCH_INPUTS.GOLDEN / f"{tag}.out").read_bytes()
    assert solver.sharpness_witness(solver.ClassId.SC, spec, result) == want


@pytest.mark.parametrize(
    "tag, argv", BENCH_INPUTS.CLI_GOLDEN, ids=[tag for tag, _ in BENCH_INPUTS.CLI_GOLDEN]
)
def test_stdout_matches_bench_golden(capsys, tag, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (BENCH_INPUTS.GOLDEN / f"{tag}.out").read_bytes()


#: sha256 of the stdout of each bench/inputs.py `verify` command, by seed
#: then class; CI checks the installed `bohrcc` script against one of them.
VERIFY_PINS = json.loads((Path(__file__).parent / "golden" / "verify_sha256.json").read_text())


@pytest.mark.parametrize("seed", sorted(VERIFY_PINS, key=int), ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("cls", list(BENCH_INPUTS.CLI_VERIFY))
def test_verify_stdout_matches_pin(capsys, cls, seed):
    (argv,) = [a for tag, _, a in BENCH_INPUTS.cli_commands(int(seed)) if tag == f"verify-{cls}"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PINS[seed][cls]


FAILING_VERIFY_PINS = json.loads(
    (Path(__file__).parent / "golden" / "verify_failing_sha256.json").read_text()
)


@pytest.mark.parametrize("command", sorted(FAILING_VERIFY_PINS))
def test_failing_verify_stdout_matches_pin(capsys, command):
    # a report past the sharp radius lists failing draws, so these bytes pin the campaign's stream
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 4
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_VERIFY_PINS[command]


#: sha256 of the stdout of `scan` over the Sc corollaries that h(r) = -h(-1)
#: solves; CI checks the installed `bohrcc` script against them too.
SCAN_PINS = json.loads((Path(__file__).parent / "golden" / "scan_sha256.json").read_text())


@pytest.mark.parametrize("command", sorted(SCAN_PINS))
def test_scan_stdout_matches_pin(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_PINS[command]


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(*argv):
    """A fresh interpreter that imports bohrcc from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)


def test_run_leaves_the_collector_off_and_the_heap_frozen():
    # the process exits after run(), so the collection at shutdown skips every
    # object frozen in its finally, whether the command returns or argparse exits
    code = (
        "import gc, sys, bohrcc.cli\n"
        "def state(argv):\n"
        "    gc.enable(); gc.unfreeze()\n"
        "    try:\n"
        "        code = bohrcc.cli.run(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    return [code, gc.isenabled(), gc.get_freeze_count() > 0]\n"
        "sys.stderr.write(repr([state(['table', '1']), state(['table', '1', '--order', '64'])]))\n"
    )
    done = _fresh("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stderr.decode().splitlines()[-1] == repr([[0, False, True], [2, False, True]])


#: (exit code, argv): a result, a ParameterError, an argparse usage error and a numeric error
_EXIT_CASES = [
    (0, ["table", "1"]),
    (2, ["radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0"]),
    (2, ["table", "1", "--order", "64"]),
    (3, ["radius", "--class", "Sc", "--phi", "lemniscate", "--s", "0.5", "--tol", "1e-300"]),
]


@pytest.mark.parametrize("want, argv", _EXIT_CASES, ids=["ok", "parameter", "usage", "numeric"])
def test_python_m_bohrcc_is_main(capsys, want, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    done = _fresh("-m", "bohrcc", *argv)
    assert code == done.returncode == want
    assert (done.stdout, done.stderr) == (out.encode(), err.encode())
    assert bool(err) == (want != 0)


def test_main_keeps_the_default_collector(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["table", "1"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
