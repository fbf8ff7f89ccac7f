import json
import os
import subprocess
import sys

import pytest

from dedsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_canonical_json_lines(text):
    # machine output must round-trip byte-for-byte through a JSON parser
    for line in text.splitlines():
        parsed = json.loads(line)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line
        assert "NaN" not in line and "Infinity" not in line


def test_sum_human(capsys):
    code, out, _ = run(capsys, "sum", "5", "14")
    assert code == 0
    assert "s(5, 14) = 3/14" in out
    assert "S(5, 14) = 18/7" in out
    assert "approx 2.57142857143" in out


def test_sum_reduces_input(capsys):
    code, out, _ = run(capsys, "sum", "19", "14", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "a": "5", "b": "14", "method": "fast", "s": "3/14", "S": "18/7",
    }
    assert_canonical_json_lines(out)


def test_sum_naive_method(capsys):
    code, out, _ = run(capsys, "sum", "2", "5", "--method", "naive", "--format", "json")
    assert code == 0
    assert json.loads(out)["S"] == "0/1"


def test_sum_not_coprime_exits_2(capsys):
    code, _, err = run(capsys, "sum", "6", "14")
    assert code == 2
    assert "not coprime" in err


def test_sum_invalid_modulus_exits_2(capsys):
    code, _, err = run(capsys, "sum", "3", "0")
    assert code == 2
    assert "invalid modulus" in err


def test_sum_past_int_str_limit(capsys):
    # 4,400 digits: past CPython's default 4,300-digit int/str limit
    b_text = "1" + "0" * 4398 + "1"
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "sum", "1", b_text, "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["b"] == b_text
    assert row["S"].endswith("/" + b_text)  # S(1, b) = (b-1)(b-2)/b, b odd
    assert sys.get_int_max_str_digits() == limit


def test_cf_human(capsys):
    code, out, _ = run(capsys, "cf", "5", "14")
    assert code == 0
    assert "[0; 2, 1, 4]" in out
    assert "[0; 2, 1, 3, 1]" in out


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "19", "14", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == ["2", "1", "4"]
    assert doc["alternate"] == ["2", "1", "3", "1"]
    assert doc["value"] == "5/14"
    assert_canonical_json_lines(out)


def test_cf_zero(capsys):
    code, out, _ = run(capsys, "cf", "0", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [] and doc["alternate"] is None


def test_surd_human(capsys):
    code, out, _ = run(capsys, "surd", "2", "1", "3", "1", "1")
    assert code == 0
    assert "14x^2 + 20x - 9 = 0" in out
    assert "(-20 + sqrt(904))/28" in out
    assert "-10/7" in out
    assert "value S = 18/7" in out


def test_surd_even_length_has_no_value(capsys):
    code, out, _ = run(capsys, "surd", "1", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] is None
    assert_canonical_json_lines(out)


def test_family_json_stream(capsys):
    code, out, _ = run(capsys, "family", "5", "14", "--count", "4", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    plan = json.loads(lines[0])
    assert plan["case"] == "rewrite-tail"
    assert plan["period"] == ["2", "1", "3", "1", "1"]
    assert plan["L"] == 5 and plan["S"] == "18/7"
    last = json.loads(lines[-1])
    assert last == {"t": 3, "k": 34, "a": "3689685095", "b": "10262775614", "S": "18/7"}
    assert_canonical_json_lines(out)


def test_family_zero(capsys):
    code, out, _ = run(capsys, "family", "0", "1", "--count", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    assert [(r["a"], r["b"]) for r in rows] == [("1", "2"), ("2", "5"), ("3", "10")]
    assert all(r["k"] is None for r in rows)


def test_family_human(capsys):
    code, out, _ = run(capsys, "family", "1", "3", "--count", "1")
    assert code == 0
    assert "rewrite-tail" in out
    assert "S = 2/3" in out
    assert "t=0" in out


def test_family_members_past_int_str_limit(capsys):
    # members from t = 11 on have more than 4,300 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "family", "1", str(10**200 + 1), "--count", "14")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 15
    assert sys.get_int_max_str_digits() == limit


def test_family_rejects_bad_c(capsys):
    code, _, err = run(capsys, "family", "5", "14", "--c", "0")
    assert code == 2
    assert "appended term" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "1", "--depth", "3")
    assert code == 0
    assert "constant S = 0 at k = 0, 2, 4: ok" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2", "1", "3", "1", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["constant"] == "18/7"
    assert doc["indices"] == [4, 14, 24]
    assert_canonical_json_lines(out)


def test_verify_even_period_exits_2(capsys):
    code, _, err = run(capsys, "verify", "1", "2")
    assert code == 2
    assert "odd" in err


def test_search_tsv(capsys):
    code, out, _ = run(capsys, "search", "18/7", "100", "--format", "tsv")
    assert code == 0
    assert out == "3\t14\n5\t14\n13\t70\n27\t70\n"


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "18/7", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"a": "3", "b": "14"}, {"a": "5", "b": "14"},
        {"a": "13", "b": "70"}, {"a": "27", "b": "70"},
    ]
    assert_canonical_json_lines(out)


def test_search_human_summary(capsys):
    code, out, _ = run(capsys, "search", "18/7", "100")
    assert code == 0
    assert "4 pairs" in out
    assert "(27, 70)" in out


def test_search_empty_is_success(capsys):
    code, out, _ = run(capsys, "search", "18/7", "14", "--format", "tsv")
    assert code == 0
    assert out == ""


def test_search_malformed_target_exits_2(capsys):
    code, _, err = run(capsys, "search", "1.5", "100")
    assert code == 2
    assert "not a rational" in err


def test_search_output_identical_across_worker_counts(capsys):
    outputs = []
    for jobs in ("1", "8"):
        for fmt in ("tsv", "json", "human"):
            code, out, _ = run(capsys, "search", "18/7", "500",
                               "--jobs", jobs, "--format", fmt)
            assert code == 0
            outputs.append((fmt, out))
    by_fmt = {}
    for fmt, out in outputs:
        by_fmt.setdefault(fmt, []).append(out)
    for fmt, (first, second) in by_fmt.items():
        assert first == second, fmt


def test_no_prune_flag(capsys):
    code1, out1, _ = run(capsys, "search", "18/7", "200", "--format", "tsv")
    code2, out2, _ = run(capsys, "search", "18/7", "200", "--format", "tsv", "--no-prune")
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dedsum", "sum", "5", "14"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "18/7" in proc.stdout


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_into_closed_pipe_exits_quietly(jobs):
    # like `| head -1`: the reader leaves after one line while hits remain
    proc = subprocess.Popen(
        [sys.executable, "-m", "dedsum", "search", "18/7", "8000",
         "--format", "tsv", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"3\t14\n"
    assert err == b""
    assert proc.returncode == 141


def test_family_verify_failure_exit_code_is_wired():
    # force the fail-closed branch by faking a bad member
    import dedsum.cli as cli_mod
    from dedsum.family import VerificationError

    real = cli_mod.family.verify_member
    cli_mod.family.verify_member = lambda m, s: False
    try:
        code = main(["family", "5", "14", "--count", "1"])
    finally:
        cli_mod.family.verify_member = real
    assert code == 3
