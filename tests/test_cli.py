import dataclasses
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedsum
from dedsum.cli import main
from dedsum.dedekind import CoprimePair, normalized_sum_fast
from dedsum.rational import format_exact, parse_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env(**extra):
    """os.environ for a child interpreter that imports this same dedsum."""
    src = os.path.dirname(os.path.dirname(dedsum.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


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


def test_search_negative_target_after_double_dash(capsys):
    # S(b - a, b) = -S(a, b): the 18/7 hits mirrored
    code, out, _ = run(capsys, "search", "--format", "tsv", "--", "-18/7", "100")
    assert code == 0
    assert out == "9\t14\n11\t14\n43\t70\n57\t70\n"


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


def test_search_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "search", "1/0", "10")
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in '1/0'\n"


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
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "18/7" in proc.stdout


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_into_closed_pipe_exits_quietly(jobs):
    # like `| head -1`: the reader leaves after one line while hits remain
    proc = subprocess.Popen(
        [sys.executable, "-m", "dedsum", "search", "18/7", "20000",
         "--format", "tsv", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(PYTHONUNBUFFERED="1"),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"3\t14\n"
    assert err == b""
    assert proc.returncode == 141


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_ctrl_c_exits_130(jobs):
    # Ctrl-C signals the whole process group: main process and workers alike
    proc = subprocess.Popen(
        [sys.executable, "-m", "dedsum", "search", "18/7", "20000",
         "--format", "tsv", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(PYTHONUNBUFFERED="1"), start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == b"3\t14\n"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (err, proc.returncode) == (b"", 130)
    with pytest.raises(ProcessLookupError):  # no worker outlived the main process
        os.killpg(proc.pid, 0)


def test_family_verify_failure_exit_code_is_wired(capsys, monkeypatch):
    # a real bad member: the genuine rows with one pair replaced by (1, 3),
    # whose S = 2/3 is neither 18/7 nor the zero family's 0
    real = dedsum.family.members
    for a, b, count, bad in [("5", "14", 6, 0), ("5", "14", 6, 3), ("5", "14", 6, 5),
                             ("0", "1", 4, 2)]:
        def fake(plan, n, bad=bad):
            rows = real(plan, n)
            rows[bad] = dataclasses.replace(rows[bad], pair=CoprimePair(1, 3))
            return rows

        monkeypatch.setattr(dedsum.family, "members", fake)
        code, out, err = run(capsys, "family", a, b, "--count", str(count), "--format", "json")
        assert (code, out) == (3, ""), (a, b, bad)
        assert f"member t={bad} " in err, (a, b, bad)


@pytest.mark.parametrize("argv, digest", [
    ("family 5 14 --count 1400 --format json",
     "41b4d385ee45b3fc355000827dbd8ee645424b65f306bba24b5fa29e55aa4a5b"),
    ("family 0 1 --count 700",
     "f82228900702fec9af2f86463a902ffd9f6654fd55c8d41b2a8f129f7240b232"),
    ("family 3 11 --c 4 --count 300",
     "66123981e74bfd67cd546ec0a024a3fc78fc9608522e106599ac31894f0ea3fd"),
    ("cf 5 14 --format json",
     "27bbf35f7d92e057f0af3587c6a92c53a182084edba987568cebabbf3d883c67"),
    ("verify 2 1 3 1 1 --depth 12 --format json",
     "b03b12fc04ded000cc35ffec331173d94ba9699417ca595967efc50848c1591f"),
    ("search 18/7 1000 --format json",
     "20c6257698f907270dc49e408851ceaa8f69fccd42abeba61e0d22fee49b904f"),
])
def test_family_output_is_pinned(capsys, argv, digest):
    # bytes printed by earlier implementations (the family rows by the
    # convergent walk with a gcd per member); refactors must not change them
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_quiet(*argv):
    """(exit code, stdout) of main, without pytest's function-scoped capsys."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def coprime_pairs(a_min, b_min, b_max):
    """Reduced pairs (a, b), a_min <= a < b, b_min <= b <= b_max."""
    return st.integers(b_min, b_max).flatmap(
        lambda b: st.tuples(st.integers(a_min, b - 1), st.just(b))
    ).filter(lambda ab: math.gcd(*ab) == 1)


@settings(deadline=None, max_examples=60)
@given(coprime_pairs(0, 1, 10**4), st.integers(1, 9), st.integers(1, 30))
def test_family_json_members_re_evaluate(source, c, count):
    a, b = source
    code, out = run_quiet("family", str(a), str(b), "--c", str(c),
                          "--count", str(count), "--format", "json")
    assert code == 0
    assert_canonical_json_lines(out)
    head, *lines = [json.loads(line) for line in out.splitlines()]
    want = parse_exact(head["S"])
    assert len(lines) == count
    denominators = [int(row["b"]) for row in lines]
    assert all(x < y for x, y in zip(denominators, denominators[1:]))
    for row in lines:
        assert row["S"] == head["S"]
        assert normalized_sum_fast(int(row["a"]), int(row["b"])) == want


@settings(deadline=None, max_examples=25)
@given(coprime_pairs(1, 2, 300), st.integers(2, 300))
def test_search_json_hits_re_evaluate(pair, bound):
    # the target is a value some pair attains, so most draws have hits
    target = normalized_sum_fast(*pair)
    # "--" lets a negative target through argparse
    code, out = run_quiet("search", "--format", "json", "--", format_exact(target), str(bound))
    assert code == 0
    hits = [(int(h["a"]), int(h["b"])) for h in json.loads(out)]
    for a, b in hits:
        assert b < bound
        assert normalized_sum_fast(a, b) == target
    assert (pair in hits) == (pair[1] < bound)
