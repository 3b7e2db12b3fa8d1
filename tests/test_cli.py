import hashlib
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import aplcm
from aplcm import verify
from aplcm.cli import build_parser, main
from aplcm.errors import SelfCheckError
from aplcm.gfun import Progression, Window, ratio_valuation_by_counting
from aplcm.numtheory import MILLER_RABIN_BOUND, is_prime, lcm_upto
from aplcm.period import smallest_period

JSON_KEYS = {"command", "inputs", "result", "elapsed_ms"}

# The int/str digit limit exists from Python 3.10.7 and 3.11 on.
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit",
)


@contextmanager
def no_int_str_limit():
    """Let the test itself render the huge integers it compares."""
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old_limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    assert set(payload) == JSON_KEYS
    return code, payload, err


def test_period_text(capsys):
    code, out, _ = run(capsys, "period", "--k", "7", "--a", "1", "--b", "0")
    assert code == 0
    assert "period = 105 = 3 * 5 * 7" in out
    assert "exceptional factor = 4 (prime 2)" in out


# SHA-256 over the text and --json output of the period command below,
# with elapsed_ms cut: any change to what it prints changes the digest.
PERIOD_OUTPUT_DIGEST = (
    "649c20ca74b58baa58ee8b91f962289fd06443dbb9bdac98c62ef0a1144a8108"
)


def test_period_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for k in (0, 1, 2, 5, 10, 27, 1000, 9000):
        for a, b in ((1, 0), (6, 4), (30, 1), (35, 12)):
            argv = ("period", "--k", str(k), "--a", str(a), "--b", str(b))
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *extra)
                assert code == 0 and err == ""
                out = re.sub(r', "elapsed_ms": [^}]*}', "}", out)
                digest.update(f"{argv} {extra}\n{out}".encode())
    assert digest.hexdigest() == PERIOD_OUTPUT_DIGEST


def test_period_verify_agrees(capsys):
    code, out, _ = run(capsys, "period", "--k", "5", "--a", "2", "--b", "1",
                       "--verify")
    assert code == 0
    assert "period = 5" in out
    assert "oracle = 5 (agrees)" in out


def test_period_verify_reports_a_disagreeing_search(capsys, monkeypatch):
    monkeypatch.setattr("aplcm.cli.smallest_period_bruteforce", lambda *a: 7)
    argv = ("period", "--k", "5", "--a", "2", "--b", "1", "--verify")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "oracle = 7 (DISAGREES)" in out
    assert err == "period mismatch: closed form 5, search 7\n"
    code, payload, err = run_json(capsys, *argv, "--json")
    assert code == 1 and "period mismatch" in err
    assert payload["result"]["oracle"] == "7"
    assert payload["result"]["oracle_agrees"] is False


def test_period_defaults_to_consecutive_integers(capsys):
    code, out, _ = run(capsys, "period", "--k", "0", "--a", "9", "--b", "4")
    assert code == 0
    assert out.startswith("period = 1\n")


def test_period_json_uses_decimal_strings(capsys):
    code, payload, _ = run_json(capsys, "period", "--k", "7", "--json",
                                "--verify")
    assert code == 0
    result = payload["result"]
    assert result["period"] == "105"
    assert result["factors"] == {"3": "1", "5": "1", "7": "1"}
    assert result["oracle"] == "105" and result["oracle_agrees"] is True
    assert payload["inputs"]["k"] == "7"


@needs_digit_limit
def test_period_json_beyond_the_int_string_limit(capsys):
    old_limit = sys.get_int_max_str_digits()
    code, payload, _ = run_json(capsys, "period", "--k", "10000", "--json")
    assert code == 0
    assert sys.get_int_max_str_digits() == old_limit
    expected = smallest_period(Progression(1, 0), 10000).value
    with no_int_str_limit():
        assert payload["result"]["period"] == str(expected)


def test_runs_without_a_digit_limit(capsys, monkeypatch):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, payload, _ = run_json(capsys, "period", "--k", "7", "--json")
    assert code == 0
    assert payload["result"]["period"] == "105"


def test_g_range(capsys):
    code, out, _ = run(capsys, "g", "--k", "3", "--n", "1..6")
    assert code == 0
    assert out.split() == ["2", "2", "6", "2", "2", "6"]

    code, out, _ = run(capsys, "g", "--k", "3", "--a", "2", "--b", "1",
                       "--n", "1..3")
    assert code == 0
    assert out.split() == ["3", "1", "1"]


def test_g_valuation(capsys):
    code, out, _ = run(capsys, "g", "--k", "5", "--n", "4", "--p", "2")
    assert code == 0
    assert out.strip() == "3"


def test_g_json_is_array(capsys):
    code, payload, _ = run_json(capsys, "g", "--k", "3", "--n", "1..3",
                                "--json")
    assert code == 0
    assert payload["result"] == ["2", "2", "6"]


def test_g_usage_errors(capsys):
    assert run(capsys, "g", "--k", "3", "--n", "0")[0] == 2
    assert run(capsys, "g", "--k", "3", "--n", "5..2")[0] == 2
    assert run(capsys, "g", "--k", "3", "--n", "x")[0] == 2
    code, _, err = run(capsys, "g", "--k", "3", "--a", "4", "--b", "2",
                       "--n", "1", "--p", "2")
    assert code == 2 and "gcd(a, b) = 1" in err
    code, _, err = run(capsys, "g", "--k", "3", "--n", "1", "--p", "4")
    assert code == 2 and "prime" in err


def test_g_range_is_under_the_work_budget(capsys, monkeypatch):
    # 100 windows of 4 terms: work 400. This runs first, so that a missing
    # bound fails here instead of listing 10^12 values below.
    monkeypatch.setenv("APLCM_BUDGET", "399")
    code, out, err = run(capsys, "g", "--k", "3", "--n", "1..100")
    assert code == 2 and out == "" and "budget 399" in err
    monkeypatch.setenv("APLCM_BUDGET", "400")
    code, out, _ = run(capsys, "g", "--k", "3", "--n", "1..100")
    assert code == 0 and len(out.split()) == 100
    monkeypatch.delenv("APLCM_BUDGET")
    code, out, err = run(capsys, "g", "--k", "3", "--n", "1..1000000000000")
    assert code == 2 and out == "" and "budget" in err


def test_sieve_is_under_the_work_budget(capsys, monkeypatch):
    monkeypatch.setenv("APLCM_BUDGET", "100")
    code, out, err = run(capsys, "period", "--k", "101")
    assert code == 2 and out == "" and "sieve" in err and "budget 100" in err
    code, out, _ = run(capsys, "period", "--k", "100")
    assert code == 0 and out
    # table's output grows as its rows: work K(K + 1)/2, 91 at K = 13.
    monkeypatch.setenv("APLCM_BUDGET", "91")
    code, out, err = run(capsys, "table", "--k-max", "14")
    assert code == 2 and out == "" and "rows" in err and "budget 91" in err
    code, out, _ = run(capsys, "table", "--k-max", "13")
    assert code == 0 and out


def test_g_valuation_prime_is_bounded(capsys):
    # A prime near 10^14 and 2**61 - 1: Miller-Rabin, no trial division.
    for p in (100000000000031, 2**61 - 1):
        code, out, _ = run(capsys, "g", "--k", "3", "--n", "1", "--p", str(p))
        assert code == 0 and out.strip() == "0"
    # At the bound the input is refused before any primality test runs.
    code, _, err = run(capsys, "g", "--k", "3", "--n", "1",
                       "--p", str(MILLER_RABIN_BOUND))
    assert code == 2 and "must be below" in err


def test_g_valuation_tests_p_once_per_range(capsys, monkeypatch):
    p = 2**61 - 1
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(aplcm.numtheory, "is_prime", counting_is_prime)
    code, payload, _ = run_json(capsys, "g", "--k", "3", "--a", "5", "--b",
                                "2", "--n", "1..50", "--p", str(p), "--json")
    assert code == 0 and len(calls) <= 2
    prog = Progression(5, 2)
    assert payload["result"] == [
        str(ratio_valuation_by_counting(p, prog, Window(n, 3)))
        for n in range(1, 51)
    ]


def test_lcm_runs_both_methods_by_default(capsys):
    code, out, _ = run(capsys, "lcm", "--k", "2", "--n", "10")
    assert code == 0 and out.strip() == "660"

    code, out, _ = run(capsys, "lcm", "--k", "0", "--a", "3", "--b", "2",
                       "--n", "4")
    assert code == 0 and out.strip() == "14"

    code, out, _ = run(capsys, "lcm", "--k", "3", "--a", "2", "--b", "1",
                       "--n", "1")
    assert code == 0 and out.strip() == "315"


def test_lcm_period_method_saves_and_reuses_table(capsys, tmp_path):
    path = tmp_path / "table.txt"
    code, out, _ = run(capsys, "lcm", "--k", "2", "--n", "11",
                       "--method", "period", "--table", str(path))
    assert code == 0 and out.strip() == "1716"
    assert path.read_text().splitlines()[0] == \
        "aplcm-table v1 a=1 b=0 k=2 period=2"

    code, out, _ = run(capsys, "lcm", "--k", "2", "--n", "10",
                       "--table", str(path))
    assert code == 0 and out.strip() == "660"


def test_lcm_mismatch_tripwire(capsys, tmp_path):
    path = tmp_path / "corrupt.txt"
    path.write_text("aplcm-table v1 a=1 b=0 k=2 period=2\n1\n1\n")
    expected = ("consistency failure: lcm mismatch at n=10: direct 660, "
                "period-table 1320\n")
    # Both methods: the default one, and the period one alone.
    for method in ((), ("--method", "period")):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "lcm", "--k", "2", "--n", "10",
                                 *method, "--table", str(path), *json_flag)
            assert (code, out, err) == (1, "", expected), (method, json_flag)


def test_lcm_malformed_table_files_exit_2_naming_the_file(capsys, tmp_path):
    for name, text in (
        ("period0.txt", "aplcm-table v1 a=1 b=0 k=2 period=0\n"),
        ("zero.txt", "aplcm-table v1 a=1 b=0 k=2 period=2\n2\n0\n"),
        ("negative.txt", "aplcm-table v1 a=1 b=0 k=2 period=2\n2\n-2\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        for method in ((), ("--method", "period")):
            code, out, err = run(capsys, "lcm", "--k", "2", "--n", "10",
                                 *method, "--table", str(path))
            assert code == 2 and out == "", (name, method)
            assert err.startswith("error: ") and name in err
            assert "Traceback" not in err


def test_lcm_period_method_certifies_a_table_file(capsys, tmp_path):
    # lcm(10, 11, 12) = 660; the tampered ratio 1 would give 1320.
    path = tmp_path / "tampered.txt"
    path.write_text("aplcm-table v1 a=1 b=0 k=2 period=2\n1\n1\n")
    code, out, err = run(capsys, "lcm", "--k", "2", "--n", "10",
                         "--method", "period", "--table", str(path))
    assert code == 1 and out == "" and "mismatch" in err

    path = tmp_path / "valid.txt"
    for argv in (("--k", "2", "--n", "10"), ("--k", "6", "--a", "6",
                                             "--b", "4", "--n", "99")):
        path.unlink(missing_ok=True)
        for _ in range(2):  # build the file, then load it
            code, out, _ = run(capsys, "lcm", *argv, "--method", "period",
                               "--table", str(path))
            assert code == 0
        direct = run(capsys, "lcm", *argv, "--method", "direct")[1]
        assert out == direct


def test_lcm_table_usage_errors(capsys, tmp_path):
    path = tmp_path / "other.txt"
    code, _, _ = run(capsys, "lcm", "--k", "3", "--n", "5",
                     "--method", "period", "--table", str(path))
    assert code == 0
    # wrong parameters for an existing table
    code, _, err = run(capsys, "lcm", "--k", "2", "--n", "5",
                       "--method", "period", "--table", str(path))
    assert code == 2 and "not (a=1, b=0, k=2)" in err
    # table with the direct method makes no sense
    code, _, _ = run(capsys, "lcm", "--k", "2", "--n", "5",
                     "--method", "direct", "--table", str(path))
    assert code == 2


@needs_digit_limit
def test_lcm_direct_accepts_a_5000_digit_n(capsys):
    old_limit = sys.get_int_max_str_digits()
    n_text = "1" + "0" * 4995 + "0007"
    n = 10**4999 + 7
    code, out, err = run(capsys, "lcm", "--k", "2", "--n", n_text,
                         "--method", "direct")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == old_limit
    with no_int_str_limit():
        assert out.strip() == str(math.lcm(n, n + 1, n + 2))


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "--k", "5", "--p", "2")
    assert code == 0
    assert "n0 = 4" in out
    assert "valuation at 4 = 3" in out and "valuation at 6 = 2" in out

    code, out, _ = run(capsys, "witness", "--k", "5", "--a", "3", "--b", "1",
                       "--p", "2")
    assert code == 0 and "n0 = 1" in out


def test_witness_precondition_exit(capsys):
    code, _, err = run(capsys, "witness", "--k", "3", "--p", "2")
    assert code == 2 and "maximal" in err
    # Composite (101 divides it), so "exceeds" shows p > k is checked first.
    code, _, err = run(capsys, "witness", "--k", "10", "--p", str(10**30 + 1))
    assert code == 2 and "exceeds" in err


def test_witness_p_at_the_primality_bound_exits_at_once(capsys, monkeypatch):
    # is_prime would refuse this p with a vaguer message, so the bound
    # check must come first and no primality test may run.
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr(aplcm.numtheory, "is_prime", no_primality_test)
    code, _, err = run(capsys, "witness", "--k", str(10**26),
                       "--p", str(MILLER_RABIN_BOUND))
    assert code == 2 and "must be below" in err


def test_table_tsv(capsys):
    code, out, _ = run(capsys, "table", "--k-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k\tlcm_upto_k\texceptional_factor\tperiod"
    assert lines[8] == "7\t420\t4\t105"
    periods = [line.split("\t")[3] for line in lines[1:]]
    assert periods == ["1", "1", "2", "3", "12", "20", "60", "105",
                       "280", "504", "2520"]


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "--k-max", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["0\t1\t1\t1"]


def test_table_odd_progression(capsys):
    code, out, _ = run(capsys, "table", "--k-max", "5", "--a", "2", "--b", "1")
    assert code == 0
    periods = [line.split("\t")[3] for line in out.splitlines()[1:]]
    assert periods == ["1", "1", "1", "3", "3", "5"]


def test_table_json_formats(capsys):
    code, payload, _ = run_json(capsys, "table", "--k-max", "2", "--json")
    assert code == 0
    assert payload["result"]["rows"][2] == {
        "k": "2", "lcm_upto_k": "2", "exceptional_factor": "1", "period": "2"
    }
    # --json is the only switch; the former --format option is gone.
    code, out, _ = run(capsys, "table", "--k-max", "2", "--format", "json")
    assert code == 2 and out == ""


def test_lcm_upto_k_matches_lcm_upto(capsys):
    for a, b in ((1, 0), (6, 1), (35, 12)):
        code, payload, _ = run_json(capsys, "period", "--k", "60", "--a", str(a),
                                    "--b", str(b), "--json")
        assert code == 0
        assert payload["result"]["lcm_upto_k"] == str(lcm_upto(60).value)
        code, payload, _ = run_json(capsys, "table", "--k-max", "60", "--a", str(a),
                                    "--b", str(b), "--json")
        assert code == 0
        rows = payload["result"]["rows"]
        assert [row["lcm_upto_k"] for row in rows] == \
            [str(lcm_upto(k).value) for k in range(61)]


def test_table_rows_come_from_one_pass(capsys, monkeypatch):
    # The rows never go through a closed form per k.
    def refuse(*args):
        raise AssertionError("table called smallest_period")

    monkeypatch.setattr("aplcm.period.smallest_period", refuse)
    monkeypatch.setattr("aplcm.cli.smallest_period", refuse)
    code, payload, _ = run_json(capsys, "table", "--k-max", "50", "--json")
    assert code == 0 and len(payload["result"]["rows"]) == 51


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--k-max", "8")
    _, second, _ = run(capsys, "table", "--k-max", "8")
    assert first == second


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "consecutive-periods")
    assert code == 0
    assert out.startswith("ok") and "11 cases" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2 and "unknown suite" in err


def test_verify_json_single_object(capsys):
    code, payload, _ = run_json(capsys, "verify", "exceptional-prime",
                                "--json", "--budget", "default")
    assert code == 0
    (report,) = payload["result"]
    assert report["suite"] == "exceptional-prime"
    assert report["passed"] is True
    assert report["cases_run"] == "10001"  # every integer is a decimal string
    assert report["failures"] == []
    assert "failures_dropped" not in report


def test_verify_reports_a_failing_suite(capsys, monkeypatch):
    def no_exceptional_factor(k, a):
        raise SelfCheckError(f"injected fault at k={k}")

    monkeypatch.setattr("aplcm.verify.exceptional_factor", no_exceptional_factor)
    code, out, err = run(capsys, "verify", "exceptional-prime")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("FAIL exceptional-prime")
    assert lines[0].endswith("   10001 failures")
    assert lines[1] == "     k=0: expected at most one prime, got injected fault at k=0"
    assert len(lines) == 1 + 20 + 1
    assert lines[-1] == "     ... and 9981 more"

    code, payload, err = run_json(capsys, "verify", "exceptional-prime", "--json")
    assert code == 1 and err == ""
    (report,) = payload["result"]
    # The report keeps the first records and counts the rest; the text
    # summary above still shows the true total.
    assert report["passed"] is False
    assert len(report["failures"]) == verify.MAX_FAILURES_KEPT
    assert int(report["failures_dropped"]) == 10001 - verify.MAX_FAILURES_KEPT
    assert report["failures"][0]["inputs"] == {"k": "0"}


def test_verify_budget_is_resolved_and_checked(capsys, monkeypatch):
    code, payload, _ = run_json(capsys, "verify", "exceptional-prime",
                                "--budget", "123", "--json")
    assert code == 0 and payload["inputs"]["budget"] == "123"
    code, out, err = run(capsys, "verify", "exceptional-prime", "--budget", "0")
    assert code == 2 and out == "" and "must be positive" in err
    monkeypatch.setenv("APLCM_BUDGET", "0")
    code, out, err = run(capsys, "verify", "exceptional-prime")
    assert code == 2 and out == "" and "must be positive" in err


def test_verify_jobs_do_not_change_json(capsys):
    def normalized(payload):
        payload.pop("elapsed_ms")
        payload["inputs"].pop("jobs")
        for report in payload["result"]:
            report.pop("elapsed_s")
        return payload

    _, one, _ = run_json(capsys, "verify", "window-counts", "--json")
    _, two, _ = run_json(capsys, "verify", "window-counts", "--json",
                         "--jobs", "3")
    assert normalized(one) == normalized(two)


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.delenv("APLCM_BUDGET", raising=False)
    code, _, err = run(capsys, "lcm", "--k", "3000", "--n", "5")
    assert code == 2 and "bits" in err and "budget" in err
    assert len(err) < 300

    monkeypatch.setenv("APLCM_BUDGET", "10")
    code, _, err = run(capsys, "period", "--k", "8", "--verify")
    assert code == 2 and "budget" in err

    monkeypatch.setenv("APLCM_BUDGET", "nope")
    code, _, err = run(capsys, "lcm", "--k", "2", "--n", "5",
                       "--method", "period")
    assert code == 2 and "APLCM_BUDGET" in err


INPUT_KEYS = (
    (("period", "--k", "3"), ["k", "a", "b", "verify"]),
    (("g", "--k", "3", "--n", "1..2"), ["k", "a", "b", "n", "p"]),
    (("lcm", "--k", "2", "--n", "10"), ["k", "a", "b", "n", "method", "table"]),
    (("witness", "--k", "5", "--p", "2"), ["k", "a", "b", "p"]),
    (("table", "--k-max", "2"), ["k_max", "a", "b"]),
    (("verify", "exceptional-prime"), ["suite", "budget", "jobs"]),
)


def test_json_inputs_are_the_parsed_arguments(capsys):
    # inputs come from the parser, so a new option would show up here.
    for argv, keys in INPUT_KEYS:
        code, payload, _ = run_json(capsys, *argv, "--json")
        assert code == 0 and payload["command"] == argv[0]
        assert list(payload["inputs"]) == keys
    assert payload["inputs"]["budget"] == "10000000"


def test_lcm_window_is_under_the_work_budget(capsys, monkeypatch):
    # Work (k + 1)^2 * w^2, w = 1 + bits(b + (n + k) a) // 64: 3^2 * 1 = 9.
    # This runs first, so that a missing bound fails here instead of
    # building 10^9 terms below.
    argv = ("lcm", "--k", "2", "--n", "1", "--method", "direct")
    monkeypatch.setenv("APLCM_BUDGET", "8")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "budget 8" in err
    monkeypatch.setenv("APLCM_BUDGET", "9")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "6\n"
    monkeypatch.delenv("APLCM_BUDGET")
    code, out, err = run(capsys, "lcm", "--k", "1000000000", "--n", "1",
                         "--method", "direct")
    assert code == 2 and out == "" and "window terms" in err and "budget" in err


def test_argparse_usage_errors(capsys):
    assert main([]) == 2
    assert main(["period"]) == 2  # --k is required
    assert main(["period", "--k", "-1"]) == 2
    assert main(["lcm", "--k", "2", "--n", "0"]) == 2
    assert main(["table", "--k-max", "3", "--format", "xml"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


SHARED_PARSER_SEQUENCE = (
    ("period",),  # argparse usage error: --k is required
    ("period", "--k", "7", "--a", "6", "--b", "1", "--verify"),
    ("g", "--k", "3", "--n", "1..6", "--json"),
    ("lcm", "--k", "2", "--n", "10"),
    ("witness", "--k", "5", "--p", "2"),
    ("table", "--k-max", "6", "--json"),
    ("verify", "consecutive-periods", "--json"),
    ("--help",),
    ("--help",),
)


def _without_timings(text):
    return re.sub(r'"elapsed_(ms|s)": [0-9.e-]+', "T", text)


def test_shared_parser_gives_the_output_of_fresh_parsers(capsys):
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in SHARED_PARSER_SEQUENCE]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in SHARED_PARSER_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0, 0, 0]
    for (c1, out1, err1), (c2, out2, err2) in zip(shared, fresh):
        assert (c1, _without_timings(out1), err1) == (c2, _without_timings(out2), err2)


def _fresh_python(*argv):
    """Run the interpreter on argv with this checkout's package importable."""
    src = str(Path(aplcm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_runs_in_a_fresh_process():
    # The in-process tests share one parser; this is the per-process path.
    period, usage = (
        _fresh_python("-m", "aplcm", *argv)
        for argv in (("period", "--k", "7", "--json"), ("g", "--k", "3", "--n", "0"))
    )
    assert period.returncode == 0, period.stderr
    payload = json.loads(period.stdout)
    assert set(payload) == JSON_KEYS
    assert payload["result"]["period"] == "105"
    assert usage.returncode == 2 and "start index" in usage.stderr


def test_cli_import_leaves_the_process_pool_out():
    # Only verify with more than one worker needs ProcessPoolExecutor,
    # whose modules take a large share of the import time.
    probe = _fresh_python("-c", (
        "import sys, aplcm.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    ))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
