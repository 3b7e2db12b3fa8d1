import json
import math
import sys
from contextlib import contextmanager

import pytest

from aplcm.cli import main
from aplcm.gfun import Progression
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


def test_period_verify_agrees(capsys):
    code, out, _ = run(capsys, "period", "--k", "5", "--a", "2", "--b", "1",
                       "--verify")
    assert code == 0
    assert "period = 5" in out
    assert "oracle = 5 (agrees)" in out


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
    code, _, err = run(capsys, "lcm", "--k", "2", "--n", "10",
                       "--table", str(path))
    assert code == 1 and "mismatch" in err


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
    code, payload2, _ = run_json(capsys, "table", "--k-max", "2",
                                 "--format", "json")
    assert code == 0
    assert payload2["result"] == payload["result"]


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


def test_argparse_usage_errors(capsys):
    assert main([]) == 2
    assert main(["period"]) == 2  # --k is required
    assert main(["period", "--k", "-1"]) == 2
    assert main(["lcm", "--k", "2", "--n", "0"]) == 2
    assert main(["table", "--k-max", "3", "--format", "xml"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
