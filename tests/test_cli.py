"""Command-line interface: exit codes, JSON payload shapes, determinism,
and the text renderings, all exercised in process."""
import json
import time
from fractions import Fraction

import pytest

from capclass import adelic, exact
from capclass.adelic import AdelicSet
from capclass.capacity import CapacityReport
from capclass.cli import main
from capclass.exact import FactoringBudgetExceeded
from capclass.lattice import AuxiliaryLine

CENSUS_FLAGS = ["--n", "101", "--t", "69", "--a", "36",
                "--X", "sqrt(101/4)", "--Y", "sqrt(101/4)"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_json_payload(capsys):
    rc, out, err = run(capsys, ["analyze", *CENSUS_FLAGS, "--check-oracle"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "line", "adelic", "capacity",
                            "verdict", "oracle"}
    assert payload["verdict"]["kind"] == "METHOD_CANNOT_SUCCEED"
    line = AuxiliaryLine.from_json(payload["line"])
    assert (line.d1, line.d2, line.d3, line.n) == (3, 5, 7, 101)
    AdelicSet.from_json(payload["adelic"])          # parses and validates
    CapacityReport.from_json(payload["capacity"])
    assert payload["oracle"]["raw"] == 2
    assert payload["oracle"]["line_vanishes_on_all"] is True
    assert "elapsed_ms=" in err


def test_analyze_text_format(capsys):
    rc, out, _ = run(capsys, ["analyze", *CENSUS_FLAGS, "--format", "text"])
    assert rc == 0
    assert "verdict: METHOD_CANNOT_SUCCEED" in out
    assert "line: (3*x + 5*y + 7)/101" in out


def test_analyze_instance_from_file(capsys, tmp_path):
    spec = {"n": 101, "t": 69, "a": 36, "X": "sqrt(101/4)", "Y": "sqrt(101/4)"}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, ["analyze", "--json", str(path)])
    assert rc == 0
    assert json.loads(out)["verdict"]["kind"] == "METHOD_CANNOT_SUCCEED"
    # the instance object analyze prints reads back to the same output
    path.write_text(json.dumps(json.loads(out)["instance"]))
    rc, again, _ = run(capsys, ["analyze", "--json", str(path)])
    assert rc == 0 and again == out
    _, from_flags, _ = run(capsys, ["analyze", *CENSUS_FLAGS])
    assert from_flags == out


def test_analyze_line_not_found_guidance(capsys):
    rc, out, _ = run(capsys, ["analyze", "--n", "101", "--t", "5", "--a", "1",
                              "--X", "30", "--Y", "30"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["error"] == "LineNotFound"
    assert payload["guidance"]["box_feasible"] is False
    assert payload["guidance"]["threshold"] == "101/27"


def test_analyze_instance_file_missing_key(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": 5}))
    rc, out, err = run(capsys, ["analyze", "--json", str(path)])
    assert rc == 1 and out == ""
    errors = [row for row in err.splitlines() if row.startswith("capclass:")]
    assert errors == [f"capclass: error: {path}: missing key 't'"]
    assert "Traceback" not in err


@pytest.mark.parametrize("content", ["[1, 2]", json.dumps(
    {"n": None, "t": 1, "a": 0, "X": 1, "Y": 1}), json.dumps(
    {"n": "abc", "t": 1, "a": 0, "X": 1, "Y": 1}), json.dumps(
    {"n": 101.9, "t": 69, "a": 36, "X": 2, "Y": 2}), json.dumps(
    {"n": 101, "t": True, "a": 36, "X": 2, "Y": 2})])
def test_analyze_malformed_instance_file(capsys, tmp_path, content):
    path = tmp_path / "instance.json"
    path.write_text(content)
    rc, out, err = run(capsys, ["analyze", "--json", str(path)])
    assert rc == 1 and out == ""
    errors = [row for row in err.splitlines() if row.startswith("capclass:")]
    assert len(errors) == 1 and errors[0].startswith(f"capclass: error: {path}: ")
    assert "Traceback" not in err


def test_eighteen_digit_prime_modulus_answers(capsys):
    # only the primes of d1 are factored, never the prime modulus itself
    rc, out, _ = run(capsys, ["analyze", "--n", "1000000000000000003",
                              "--t", "12345", "--a", "678",
                              "--X", "100000000", "--Y", "100000000"])
    assert rc == 0
    assert json.loads(out)["verdict"]["kind"] == "METHOD_CANNOT_SUCCEED"


FORTY_DIGITS = ["analyze", "--n", "10000000000000000000000000000000000000121",
                "--t", "16180339887498948482045868343",
                "--a", "271828182845904523536",
                "--X", "10000000000000000000", "--Y", "10000000000000000000"]


def test_forty_digit_modulus_factors_d1_quickly(capsys):
    # d1 = 5 * 11 * 200497350196808933: trial division leaves a prime
    # cofactor that is_prime proves at once
    started = time.perf_counter()
    rc, out, _ = run(capsys, FORTY_DIGITS)
    assert time.perf_counter() - started < 2
    assert rc == 0
    finite = json.loads(out)["adelic"]["finite"]
    assert [d["p"] for d in finite] == [5, 11, 200497350196808933]


def test_unfactored_d1_is_refused(capsys, monkeypatch):
    # without a primality proof for the cofactor the run refuses, exit 2
    monkeypatch.setattr(exact, "PROVEN_PRIME_BOUND", 10**12)
    rc, out, err = run(capsys, FORTY_DIGITS)
    assert rc == 2 and out == ""
    assert "capclass: refused: cannot factor 200497350196808933" in err
    assert "proven bound 1000000000000" in err
    assert "Traceback" not in err


def test_hnp_unfactored_d1_is_inconclusive(capsys, monkeypatch):
    def refuse(d1):
        raise FactoringBudgetExceeded(f"cannot factor {d1}: budget")

    monkeypatch.setattr(adelic, "prime_factors", refuse)
    rc, out, _ = run(capsys, ["hnp", "--c0", "3", "--d0", "7", "--c1", "5",
                              "--d1", "11", "--n", "101", "--X", "4"])
    assert rc == 2
    payload = json.loads(out)
    assert payload["status"] == "INCONCLUSIVE" and payload["pipeline"] is None
    assert payload["reason"].startswith("no adelic set: cannot factor")


def test_analyze_missing_flags(capsys):
    rc, _, err = run(capsys, ["analyze", "--n", "101"])
    assert rc == 1
    assert "missing flags" in err


def test_malformed_bound_is_an_error(capsys):
    rc, _, err = run(capsys, ["analyze", *CENSUS_FLAGS[:-2], "--Y", "1/0"])
    assert rc == 1
    assert "cannot parse Y=" in err


def test_hnp_certified(capsys):
    rc, out, _ = run(capsys, ["hnp", "--c0", "3", "--d0", "7", "--c1", "5",
                              "--d1", "11", "--n", "101", "--X", "4",
                              "--check-oracle"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "AT_MOST_ONE"
    assert payload["oracle"] == {"secret_count": 1, "consistent": True}
    assert payload["samples"]["X"] == "4"


def test_hnp_inconclusive_exits_2(capsys):
    rc, out, _ = run(capsys, ["hnp", "--c0", "3", "--d0", "7", "--c1", "5",
                              "--d1", "11", "--n", "101", "--X", "30"])
    assert rc == 2
    assert json.loads(out)["status"] == "INCONCLUSIVE"
    # a tiny box on a prime modulus trips the line-search node cap
    rc, out, _ = run(capsys, ["hnp", "--n", "10000019", "--c0", "1", "--d0",
                              "0", "--c1", "2", "--d1", "5", "--X", "1"])
    assert rc == 2
    payload = json.loads(out)
    assert payload["status"] == "INCONCLUSIVE" and payload["pipeline"] is None
    assert "nodes" in payload["reason"]


def test_hnp_small_budget_answers(capsys):
    # only the homogeneous instance is built, so X <= 2/3 is accepted
    rc, out, _ = run(capsys, ["hnp", "--n", "10007", "--c0", "3", "--d0", "5",
                              "--c1", "7", "--d1", "11", "--X", "1/2"])
    assert rc in (0, 2)
    assert json.loads(out)["samples"]["X"] == "1/2"


def test_hnp_too_small_budget_names_x(capsys):
    rc, out, err = run(capsys, ["hnp", "--n", "10007", "--c0", "3", "--d0",
                                "5", "--c1", "7", "--d1", "11", "--X", "1/3"])
    assert rc == 1 and out == ""
    errors = [row for row in err.splitlines() if row.startswith("capclass:")]
    assert errors == ["capclass: error: X must exceed 1/3"]


def test_census_output_is_byte_deterministic(capsys):
    argv = ["census", "--p", "10007", "--c", "1/2", "--samples", "15",
            "--seed", "7"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["sample_size"] == 15
    assert payload["lambda_injective"] is True
    assert len(payload["records"]) == 15


def test_census_zero_box(capsys):
    rc, out, _ = run(capsys, ["census", "--p", "10007", "--c", "1/2",
                              "--z", "1/32", "--box", "zero",
                              "--samples", "10", "--no-records"])
    assert rc == 0
    payload = json.loads(out)
    assert "records" not in payload
    assert payload["box"] == {"d1": [2, 5], "d2": [1, 1], "d3": [301, 312]}
    assert payload["fraction_gamma_zero"] == "1"


def test_census_text_format(capsys):
    rc, out, _ = run(capsys, ["census", "--p", "101", "--c", "1/2",
                              "--samples", "5", "--format", "text"])
    assert rc == 0
    assert out.startswith("census p=101")
    assert "lambda injective: True" in out


def test_census_rejects_composite_modulus(capsys):
    rc, _, err = run(capsys, ["census", "--p", "10008", "--c", "1/2"])
    assert rc == 1
    assert "not prime" in err


def test_search_ndjson(capsys):
    rc, out, err = run(capsys, ["search", *CENSUS_FLAGS])
    assert rc == 0
    rows = [json.loads(row) for row in out.splitlines()]
    assert rows == [{"x": [-4, 0], "y": [1, 0]}, {"x": [1, 0], "y": [-2, 0]}]
    assert "solutions: raw=2 nonzero=2 ring=Z" in err


def test_search_other_ring(capsys):
    rc, out, _ = run(capsys, ["search", *CENSUS_FLAGS, "--ring", "gauss"])
    assert rc == 0
    assert len(out.splitlines()) == 2


def test_search_box_beyond_float_range_is_refused(capsys):
    rc, out, err = run(capsys, ["search", "--n", "7", "--t", "3", "--a", "1",
                                "--X", "1e-300", "--Y", "1e300"])
    assert rc == 1 and out == ""
    errors = [row for row in err.splitlines() if row.startswith("capclass:")]
    assert errors == ["capclass: error: search box has ~inf point pairs "
                      "in Z (limit 1e+08)"]
    assert "Traceback" not in err


def test_search_unknown_ring_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", *CENSUS_FLAGS, "--ring", "foo"])
    assert exc.value.code == 1
    assert "argument --ring: invalid choice: 'foo'" in capsys.readouterr().err


def test_capacity_command(capsys):
    rc, out, _ = run(capsys, ["capacity", "--r", "1", "--s", "1",
                              "--check-oracle", "--fekete", "50"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["case"] == "lens"
    assert abs(float(Fraction(payload["capacity"]["lo"])) - 0.649519052838329) < 1e-12
    assert float(payload["oracle"]["abs_error_vs_midpoint"]) < 2e-2
    rc, out, _ = run(capsys, ["capacity", "--r", "5/2", "--s", "1"])
    assert json.loads(out)["case"] == "disk1"


def test_bound_command(capsys):
    rc, out, _ = run(capsys, ["bound", "--n", "1000", "--X", "1", "--Y", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["threshold"] == "1000/27"
    assert payload["optimal_box"] == ["1/3", "1/9", "1/3"]
    rc, out, _ = run(capsys, ["bound", "--n", "100", "--X", "2", "--Y", "2"])
    assert json.loads(out)["feasible"] is False
    # the criterion is X*Y < n/27, not (X*Y)^2: 36 < 1000/27
    rc, out, _ = run(capsys, ["bound", "--n", "1000", "--X", "6", "--Y", "6"])
    assert json.loads(out)["feasible"] is True


def test_bound_rejects_zero_bounds(capsys):
    for flag, other in (("--X", "--Y"), ("--Y", "--X")):
        rc, out, err = run(capsys, ["bound", "--n", "1000", flag, "0",
                                    other, "3"])
        assert rc == 1 and out == ""
        assert f"capclass: error: {flag} must be positive\n" in err


@pytest.mark.parametrize("modulus", ["0", "-5"])
def test_bound_rejects_nonpositive_modulus(capsys, modulus):
    rc, out, err = run(capsys, ["bound", "--n", modulus, "--X", "1",
                                "--Y", "1"])
    assert rc == 1 and out == ""
    assert "capclass: error: modulus must be >= 1\n" in err


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_threads_flag_is_gone(capsys):
    for argv in (["analyze", *CENSUS_FLAGS], ["search", *CENSUS_FLAGS],
                 ["census", "--p", "101", "--c", "1/2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 1
    assert "usage: capclass" in err
