"""Command line driver: determinism, verdicts, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautsys.cli
import tautsys.membership
from tautsys.cli import main
from tautsys.exact import Inconsistent
from tautsys.membership import NonMember
from tautsys.model import (ResourceBoundError, build_projective_model,
                           lattice_relations)
from tautsys.periods import period_series
from tautsys.systems import build_scalar_system
from tautsys.weyl import index_shift


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_periods_passes_and_is_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "verify-periods", "--d", "1",
                                "--p", "0", "--order", "10")
    code2, out2, _ = run_cli(capsys, "verify-periods", "--d", "1",
                             "--p", "0", "--order", "10")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verdict: PASS" in out1
    assert "all-zero: yes" in out1
    assert "elapsed" in err1 and "elapsed" not in out1


# a command line rejected inside a subcommand, then two that leave options
# at their defaults: the rejected `--p 1` must not reach the last call
ONE_PROCESS_ARGV = ["verify-periods --d 2 --p 1 --bogus 1",
                    "build-system --d 1 --p 1 --degree-bound 2",
                    "verify-periods --d 1"]


def _without_elapsed(code, out, err):
    return code, out, [line for line in err.splitlines()
                       if not line.startswith("elapsed:")]


def test_calls_in_one_process_report_as_each_call_alone(capsys):
    """The parser is built once per process and serves every call; each
    call reports exactly what its command line reports in a fresh
    interpreter."""
    src = pathlib.Path(tautsys.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in ONE_PROCESS_ARGV:
        here = run_cli(capsys, *argv.split())
        alone = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tautsys.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv.split()],
            capture_output=True, text=True, env=env, timeout=120)
        assert _without_elapsed(*here) == _without_elapsed(
            alone.returncode, alone.stdout, alone.stderr), argv
    assert tautsys.cli._build_parser() is tautsys.cli._build_parser()


def test_verify_periods_first_derivative(capsys):
    code, out, _ = run_cli(capsys, "verify-periods", "--d", "1", "--p", "1",
                           "--order", "8")
    assert code == 0
    assert "verdict: PASS" in out


def test_fourier_golden_verdict(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--d", "1")
    assert code == 0
    assert "fourier image matches dual golden forms: yes" in out


def test_membership_worked_plane_example(capsys):
    code, out, _ = run_cli(capsys, "membership", "--d", "2", "--fermat",
                           "--alpha", "2e0")
    assert code == 0
    assert "result: member" in out
    assert "certificate-audit: pass" in out


def test_membership_non_member_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "membership", "--d", "1", "--fermat",
                           "--alpha", "e1")
    assert code == 0  # a non-member verdict is an answer, not a failure
    assert "result: non-member" in out
    assert "witness" in out


def test_membership_explicit_point(capsys):
    code, out, _ = run_cli(capsys, "membership", "--d", "1",
                           "--point", "0,1,1", "--alpha", "e0")
    assert code == 0
    assert "result: member" in out


def test_scan_pencil(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "1", "--alpha", "e0",
                           "--line", "0,1,1;1,0,0;0,1,2")
    assert code == 0
    assert "t=0: member" in out
    assert "t=1: non-member" in out
    assert "t=2: non-member" in out


def test_surjectivity_with_filtration(capsys):
    code, out, _ = run_cli(capsys, "surjectivity", "--d", "2", "--k", "1",
                           "--l", "1", "--filtration", "3")
    assert code == 0
    assert "product span rank: 28 / 28" in out
    assert "filtration generators (p=3): 28 / 28" in out


def test_selftest_deterministic_per_seed(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "selftest", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 7" in out1
    assert "verdict: PASS" in out1


def test_build_system_emits_exact_json(capsys):
    code, out, _ = run_cli(capsys, "build-system", "--d", "1", "--p", "1")
    assert code == 0
    payload = out.split("system-json:\n", 1)[1].rsplit("\nverdict:", 1)[0]
    data = json.loads(payload)
    assert data["system"]["p"] == 1
    assert data["system"]["beta_e"] == "2"
    assert data["model"]["basis"][0] == [1, 1]


def test_build_system_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAUTSYS_OUT", str(tmp_path))
    code, out, _ = run_cli(capsys, "build-system", "--d", "1", "--p", "0",
                           "--out", "system.json")
    assert code == 0
    target = tmp_path / "system.json"
    assert target.exists()
    data = json.loads(target.read_text())
    assert data["system"]["kind"] == "base"


def test_resource_bounds_rejected(capsys):
    code, _, err = run_cli(capsys, "verify-periods", "--d", "1", "--p", "0",
                           "--order", "45")
    assert code == 2
    assert "order" in err
    code, _, err = run_cli(capsys, "verify-periods", "--d", "1", "--p", "9",
                           "--order", "5")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "surjectivity --d 2 --k 3 --l 3",
    "membership --d 1 --fermat --monomial a,b",
    "membership --d 1 --fermat --monomial 1,2",
    "membership --d 1 --fermat --alpha e0 --monomial 2,0",
    "membership --d 1 --fermat --alpha e0 --degree-bound 3",
    "scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2 --degree-bound 3",
    "surjectivity --d 1 --k 1 --l 1 --degree-bound 3",
    "scan --d 1 --alpha e0 --monomial 2,0 --line 0,1,1;1,0,0;0,1,2",
    "scan --d 1 --alpha e0 --line 0,1,1;0,0,0;1,2",
    "build-system --d 1 --out /nonexistent/x.json",
    "surjectivity --d 1 --k 1 --l 1 --filtration 0",
    "surjectivity --d 1 --k 1 --l 1 --filtration 6",
    "membership --d 1 --point 0,0,0 --alpha e0",
    "membership --d 1 --fermat --alpha 40e0",
    "membership --d 1 --fermat --alpha 6e0",
    "scan --d 1 --alpha 6e0 --line 0,1,1;1,0,0;0,1",
    "build-system --d 3 --degree-bound 3",
    "fourier --d 3 --degree-bound 4",
    "build-system --d 3 --p 2 --degree-bound 2",
    "verify-periods --d 2 --order 30",
    "verify-periods --d 2 --p 1 --order 16",
    "verify-periods --d 3 --p 2 --order 2",
    "verify-periods --d 3 --order 8 --degree-bound 2",
    "verify-periods --d 3 --p 1 --order 5 --degree-bound 2",
    "verify-periods --d 3 --order 12 --degree-bound 2",
    "verify-periods --d 3 --p 1 --order 1 --degree-bound 2",
    "verify-periods --d 2 --p 3 --order 1 --degree-bound 4",
    "verify-periods --d x",
    "verify-periods --d 2 --bogus 1",
    "scan --d 1 --alpha e0",
    "",
    "membership --d 1 --fermat --monomial 0_2,2",
    "membership --d 1 --fermat --monomial \uff12,2",
    "membership --d 1 --fermat --alpha \uff12e0",
    "membership --d 1 --fermat --alpha e\u0660",
    "verify-periods --d \uff12 --order 4",
    "verify-periods --d 0_1 --order 0_4",
    "surjectivity --d 1 --k 1 --l 1_0",
    "membership --d 1 --point 1_0,1,1 --alpha e0",
    "membership --d 1 --point \uff12,1,1 --alpha e0",
    "scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1_0",
    "scan --d 1 --alpha e0 --line 0,1,1;\uff11,0,0;0,1",
    pytest.param("scan --d 1 --alpha e0 --line 0,1,1;1,0,0;" + ",".join(
        str(t % 100) for t in range(981)),
        id="scan --d 1 --alpha e0 over 981 points"),
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


#: terms of the period series at d = 2 and 3 by order 0, 1, .. (at d = 1
#: the series has one term per even order)
PERIOD_TERMS = {2: (1, 1, 4, 10, 25, 49, 103, 184, 331, 554, 911, 1424, 2204,
                    3278, 4817, 6896, 9746, 13487, 18480),
                3: (1, 1, 10, 70, 465)}


@pytest.mark.parametrize("d", [2, 3])
def test_verify_cost_table_counts_period_terms(d):
    """The period series that verify-periods expands has the listed term
    count at each order."""
    spec = build_projective_model(d, ordering="interior-first")
    table = PERIOD_TERMS[d]
    for order, terms in enumerate(table):
        assert len(period_series(spec, order).terms) == terms


@functools.cache
def verify_envelope():
    """{(d, p, degree bound): least certifying order} for every row the
    relation-pair and operator caps let through, in the CLI's ordering."""
    least = {}
    for d in (1, 2, 3):
        spec = build_projective_model(d, ordering="interior-first")
        for bound in range(2, 5):
            try:
                relations = lattice_relations(spec, bound)
            except ResourceBoundError:
                continue
            for p in range(4):
                try:
                    system = build_scalar_system(spec, relations, p)
                except ResourceBoundError:
                    continue
                least[d, p, bound] = -min(index_shift(op, spec.i0)
                                          for op in system.operators)
    return least


def test_verify_order_table_covers_the_admitted_rows(capsys):
    """Every d >= 2 row the caps admit has a largest order, between its
    least certifying order and MAX_ORDER, and one order more exits 2 at
    once with one `error:` line naming the row."""
    least = verify_envelope()
    rows = tautsys.cli.MAX_VERIFY_ORDER
    assert set(rows) == {key for key in least if key[0] > 1}
    for (d, p, bound), top in rows.items():
        assert least[d, p, bound] <= top <= tautsys.cli.MAX_ORDER
        if top == tautsys.cli.MAX_ORDER:
            continue
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-periods", "--d", str(d),
                                 "--p", str(p), "--order", str(top + 1),
                                 "--degree-bound", str(bound))
        assert time.perf_counter() - started < 0.5
        assert (code, out) == (2, "")
        assert err == (f"error: verify-periods at d={d} p={p} degree bound "
                       f"{bound} admits orders up to {top}, not {top + 1}\n")


def test_readme_envelope_matches_the_table():
    """The README's envelope table lists, per (d, degree bound) and p, the
    least certifying order and the largest admitted one."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| d, degree bound | p=0 | p=1 | p=2 | p=3 |\n",
                         1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[1:]:
        label, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        d, bound = map(int, re.fullmatch(r"d=(\d), bound (\d)",
                                          label).groups())
        for p, cell in enumerate(cells):
            if cell != "—":
                listed[d, p, bound] = tuple(map(int, cell.split("–")))
    least = verify_envelope()
    assert listed == {
        key: (low, tautsys.cli.MAX_VERIFY_ORDER.get(key,
                                                    tautsys.cli.MAX_ORDER))
        for key, low in least.items()}


def test_readme_states_the_rational_digit_bound():
    """The README's grammar paragraph names the bound the parser keeps."""
    readme = " ".join(
        (pathlib.Path(__file__).parents[1] / "README.md").read_text().split())
    bound = tautsys.cli.MAX_RATIONAL_DIGITS
    assert (f"at most {bound} in the numerator and {bound} in the "
            "denominator (`tautsys.cli.MAX_RATIONAL_DIGITS`)") in readme
    assert f"The {bound}-digit bound on rationals" in readme


def test_readme_lists_the_options_of_every_command():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| command | options |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[1:]:
        command, options = (cell.strip() for cell in line.strip("|").split("|"))
        listed[command.strip("`")] = set(re.findall(r"--[a-z-]+", options))
    commands = next(action.choices
                    for action in tautsys.cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert listed == {
        name: {option for action in parser._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, parser in commands.items()}


@pytest.mark.parametrize("d,p,order,bound", [
    (1, 3, 30, 4), (2, 0, 8, 2), (2, 0, 4, 3), (2, 1, 4, 2), (3, 0, 2, 2)])
def test_verify_cost_admits_the_benchmarked_runs(d, p, order, bound):
    tautsys.cli._check_verify_limit(d, p, bound, order)


@pytest.mark.parametrize("argv,bound,pairs", [
    ("verify-periods --d 3 --order 2", 3, 115676),
    ("build-system --d 3 --degree-bound 4", 4, 6758740)])
def test_relation_cap_names_the_largest_bound(capsys, argv, bound, pairs):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == (f"error: degree bound {bound} at d=3 gives {pairs} "
                   "candidate relations, above the supported 4764; the "
                   "largest supported degree bound at d=3 is 2\n")


def test_d3_order_6_verifies_order_4(capsys):
    code, out, _ = run_cli(capsys, "verify-periods", "--d", "3", "--order",
                           "6", "--degree-bound", "2")
    assert code == 0
    assert out.endswith("all-zero: yes\nverified-order: 4\nverdict: PASS\n")


@pytest.mark.parametrize("order", [1, 2, 3])
def test_no_admitted_order_is_named(capsys, order):
    """d=3 p=1 once admitted no order at all; now every (d, p, degree bound)
    admits its least certifying order.  At d=3 p=1 that is order 2, which
    verifies order 0; order 1 is rejected naming it."""
    code, out, err = run_cli(capsys, "verify-periods", "--d", "3", "--p",
                             "1", "--order", str(order), "--degree-bound",
                             "2")
    if order < 2:
        assert (code, out) == (2, "")
        assert err.endswith("the minimum order is 2\n")
        assert err.count("\n") == 1
        return
    assert code == 0
    assert f"verified-order: {order - 2}\n" in out
    assert out.endswith("verdict: PASS\n")


def test_too_low_order_names_the_minimum(capsys):
    for bound in (2, 3, 4):
        code, out, err = run_cli(capsys, "verify-periods", "--d", "2",
                                 "--order", str(bound - 1), "--degree-bound",
                                 str(bound))
        assert (code, out) == (2, "")
        assert err.endswith(f"the minimum order is {bound}\n")
        code, out, _ = run_cli(capsys, "verify-periods", "--d", "2",
                               "--order", str(bound), "--degree-bound",
                               str(bound))
        assert code == 0
        assert "verified-order: 0\n" in out


def test_filtration_bound_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "surjectivity", "--d", "1", "--k", "1",
                             "--l", "1", "--filtration", "6")
    assert code == 2
    assert out == ""
    assert err == "error: filtration p=6 exceeds the supported bound 5\n"


def _zeroed(witness):
    return Inconsistent(combo=(0,) * len(witness.combo),
                        reduced_rhs=witness.reduced_rhs)


def _doubled(witness):
    return Inconsistent(combo=tuple(2 * c for c in witness.combo),
                        reduced_rhs=witness.reduced_rhs)


@pytest.mark.parametrize("tamper", [_zeroed, _doubled])
@pytest.mark.parametrize("argv", [
    "membership --d 1 --fermat --alpha e1",
    "scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2",
])
def test_tampered_witness_fails_the_verdict(capsys, monkeypatch, argv,
                                            tamper):
    honest = tautsys.membership.membership_test

    def tampered(*args):
        result = honest(*args)
        if isinstance(result, NonMember):
            return NonMember(result.system, tamper(result.witness))
        return result

    # the membership command calls the cli binding, scan_family its own
    monkeypatch.setattr(tautsys.cli, "membership_test", tampered)
    monkeypatch.setattr(tautsys.membership, "membership_test", tampered)
    code, out, _ = run_cli(capsys, *argv.split(" "))
    assert code == 1
    assert "non-member" in out
    assert out.endswith("verdict: FAIL\n")


def test_unparseable_alpha_rejected(capsys):
    code, _, err = run_cli(capsys, "membership", "--d", "1", "--fermat",
                           "--alpha", "bogus")
    assert code == 2
    assert "multi-index" in err


AT_BOUND = "9" * tautsys.cli.MAX_RATIONAL_DIGITS
OVER_BOUND = AT_BOUND + "9"
#: entries outside the grammar: exponent, decimal, plus, hex and zero-den
#: forms, and a numerator or denominator one digit over the bound
BAD_ENTRIES = ["1e5", "2.5", "+1", "1.", "0x10", "1/0", OVER_BOUND,
               f"-{OVER_BOUND}", f"1/{OVER_BOUND}", f"-{AT_BOUND}/1{AT_BOUND}"]
#: the pencil 0,1,1;1,0,0;0,1,2 of `test_scan_pencil`, one part at a time
LINE_PARTS = ["0,1,1", "1,0,0", "0,1,2"]


def _line_with(entry, part):
    parts = list(LINE_PARTS)
    parts[part] = f"{entry},{parts[part].split(',', 1)[1]}"
    return ";".join(parts)


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("where", ["point", "line 0", "line 1", "line 2"])
def test_rational_grammar_rejects_other_forms(capsys, entry, where):
    """A `--point` or `--line` entry is `num` or `num/den` in ASCII digits,
    at most MAX_RATIONAL_DIGITS each; anything else is bad input."""
    if where == "point":
        argv = ["membership", "--d", "1", f"--point={entry},1,1",
                "--alpha", "e0"]
    else:
        argv = ["scan", "--d", "1", "--alpha", "e0",
                f"--line={_line_with(entry, int(where[-1]))}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse rational vector ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("entry, canonical", [
    ("-3/4", "-3/4"), (" 2 ", "2"), ("0", "0"), ("-0/5", "0"),
    (AT_BOUND, AT_BOUND), (f"-{AT_BOUND}/{AT_BOUND[:-1]}8",
                           f"-{AT_BOUND}/{AT_BOUND[:-1]}8"),
    (f"{AT_BOUND}/{AT_BOUND}", "1")])
def test_rational_grammar_reads_num_and_num_over_den(capsys, entry,
                                                     canonical):
    """A read entry reports as its canonical form does, in the point and in
    each part of a line."""
    code, out, _ = run_cli(capsys, "membership", "--d", "1",
                           f"--point={entry},1,1", "--alpha", "e0")
    assert code == 0
    assert f"point: {canonical},1,1\n" in out
    for part in range(3):
        if part == 1 and canonical == "0":
            continue  # a zero direction is rejected by the library
        read = run_cli(capsys, "scan", "--d", "1", "--alpha", "e0",
                       f"--line={_line_with(entry, part)}")
        plain = run_cli(capsys, "scan", "--d", "1", "--alpha", "e0",
                        f"--line={_line_with(canonical, part)}")
        assert read[0] == 0
        assert _without_elapsed(*read) == _without_elapsed(*plain)


def test_huge_exponent_entry_is_rejected_at_once(capsys):
    """`Fraction` would expand 1e999999999 digit by digit; the grammar
    refuses it before any number is made."""
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "membership", "--d", "1",
                             "--point", "1e999999999,1,1", "--alpha", "e0")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_grlex_ordering_flag(capsys):
    code, out, _ = run_cli(capsys, "build-system", "--d", "1", "--p", "0",
                           "--ordering", "grlex")
    assert code == 0
    payload = out.split("system-json:\n", 1)[1].rsplit("\nverdict:", 1)[0]
    data = json.loads(payload)
    assert data["model"]["basis"][0] == [2, 0]
    assert data["model"]["i0"] == 1


# cheap valid command lines, one or more per subcommand; the contract test
# corrupts them
VALID_ARGV = [
    "verify-periods --d 1 --p 2 --order 4",
    "verify-periods --d 2 --order 3 --degree-bound 2",
    "verify-periods --d 2 --p 1 --order 2 --degree-bound 2",
    "build-system --d 1 --p 1 --degree-bound 2",
    "build-system --d 2 --degree-bound 2",
    "fourier --d 1 --degree-bound 3",
    "fourier --d 2 --degree-bound 2",
    "membership --d 1 --fermat --alpha e1",
    "membership --d 1 --point 1,2,3 --alpha 2e0",
    "membership --d 2 --fermat --monomial 1,1,1",
    "scan --d 1 --alpha e0 --line 0,1,1;1,0,0;0,1,2",
    "surjectivity --d 2 --k 1 --l 1 --filtration 3",
    "surjectivity --d 1 --k 2 --l 2",
    "selftest --seed 7",
]
JUNK = ["x", "", "-1", "0", "5", "99", "1/0", "2.5", "e9", "40e0", "0,0,0",
        "1,2", ";;", "--bogus", "--help-me", "selftest"]


@st.composite
def command_lines(draw):
    """A valid command line, as it is or with one to three tokens after the
    subcommand replaced, dropped or inserted."""
    argv = draw(st.sampled_from(VALID_ARGV)).split()
    if draw(st.booleans()):
        return argv
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "drop", "insert"]))
        if edit == "insert" or len(argv) == 1:
            argv.insert(draw(st.integers(1, len(argv))),
                        draw(st.sampled_from(JUNK)))
        elif edit == "replace":
            argv[draw(st.integers(1, len(argv) - 1))] = draw(
                st.sampled_from(JUNK))
        else:
            del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command_lines())
def test_exit_code_contract_over_generated_argv(argv):
    """0 or 1 with a report, 1 only with a failed verdict, 2 with nothing
    on stdout and one `error:` line; never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert out.endswith("verdict: PASS\n" if code == 0
                            else "verdict: FAIL\n")
