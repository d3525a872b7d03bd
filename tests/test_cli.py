import json
import random
import sys
from fractions import Fraction

import pytest

from subtree_census.cli import main
from subtree_census.graphs import emit_graph6, make_cycle, make_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu_graph6_k2(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "mu", "--graph6", "A_")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["mu"] == "4/3"
    assert rec["results"]["count"] == "3"
    assert rec["results"]["mu_decimal"].startswith("1.3333333333")
    assert "timing_ms" not in rec


def test_mu_path(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "mu", "--path", "10")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["mu"] == "4"
    assert rec["results"]["sigma"] == "2/5"


def test_mu_family_fan(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "mu",
                           "--family", "fan", "--L", "8", "--s", "100", "--k", "2")
    rec = json.loads(out)
    assert code == 0
    mu = rec["results"]["mu"]
    assert "/" in mu
    num, den = map(int, mu.split("/"))
    from math import gcd
    assert gcd(num, den) == 1
    assert 1 <= num / den <= 8 + 200


def test_mu_timing_present_without_deterministic(capsys):
    code, out, _ = run_cli(capsys, "mu", "--path", "4")
    rec = json.loads(out)
    assert code == 0 and "timing_ms" in rec


def test_deterministic_output_is_byte_identical(capsys):
    argv = ("--deterministic", "threshold", "--m", "3", "--n-max", "200", "--full-table")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 and out1 == out2


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "mu", "--graph6", "!!bad")
    assert code == 2
    assert "error" in err


def test_exit_code_too_large(capsys):
    code, _, err = run_cli(capsys, "mu", "--graph6", emit_graph6(make_cycle(30)))
    assert code == 3


def test_mu_tree_above_census_cap_uses_tree_dp(capsys):
    # a path has mean subtree order (n + 2) / 3
    for argv in (("--path", "30"), ("--graph6", emit_graph6(make_path(30)))):
        code, out, _ = run_cli(capsys, "--deterministic", "mu", *argv)
        assert code == 0
        rec = json.loads(out)
        assert rec["results"]["mu"] == "32/3"
        assert rec["results"]["order"] == "30"


def test_exit_code_bad_params(capsys):
    code, _, _ = run_cli(capsys, "mu", "--family", "fan", "--L", "3", "--s", "1", "--k", "5")
    assert code == 2


def test_csv_format_has_schema_header(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "--deterministic",
                           "stem-table", "--m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert any(line.startswith("a,b,") for line in lines)


def test_decrease_cli(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "decrease",
                           "--k", "1", "--L-max", "4", "--s-max", "16")
    rec = json.loads(out)
    assert code == 0
    for row in rec["rows"]:
        assert "/" in row["mu_base"] or row["mu_base"].isdigit()


def test_decrease_negative_s_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "--deterministic", "decrease",
                             "--k", "1", "--s-max", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: s_max must be >= 0\n"


@pytest.mark.parametrize("lengths", [("--L-max", "2"), ("--L-min", "10", "--L-max", "5")])
def test_decrease_empty_length_range_exits_2(monkeypatch, capsys, lengths):
    from subtree_census import families

    def no_census(*args):
        raise AssertionError("census ran for an empty length range")

    monkeypatch.setattr(families, "_hub_census", no_census)
    code, out, err = run_cli(capsys, "--deterministic", "decrease", "--k", "1", *lengths)
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty length range")


def test_decrease_core_too_short_for_the_chords_exits_2(monkeypatch, capsys):
    from subtree_census import families

    def no_census(*args):
        raise AssertionError("census ran before the length checks")

    monkeypatch.setattr(families, "_hub_census", no_census)
    code, out, err = run_cli(capsys, "--deterministic", "decrease",
                             "--k", "2", "--L-min", "3", "--L-max", "6")
    assert code == 2
    assert out == ""
    assert err == "error: 2 fan chords need a core length of at least 4, not 3\n"


def test_decrease_core_over_bound_exits_3_before_scanning(monkeypatch, capsys):
    from subtree_census import families

    def no_census(*args):
        raise AssertionError("census ran before the range checks")

    monkeypatch.setattr(families, "_hub_census", no_census)
    code, out, err = run_cli(capsys, "--deterministic", "decrease",
                             "--k", "1", "--L-max", "23", "--s-max", "65536")
    assert code == 3
    assert out == ""
    assert err == "error: core length 23 exceeds the census bound 22\n"


def test_threshold_cli_m1_no_crossing(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "threshold",
                           "--m", "1", "--n-max", "100")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["n_star"] == "no crossing"


def test_threshold_cli_negative_n_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "--deterministic", "threshold", "--m", "2", "--n-max", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: need n_max >= 0\n"
    # an empty range stays a valid, documented "no crossing"
    code, out, _ = run_cli(capsys, "--deterministic", "threshold", "--m", "2", "--n-max", "0")
    rec = json.loads(out)
    assert code == 0 and rec["results"]["n_star"] == "no crossing" and rec["rows"] == []


def test_threshold_cli_m2(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "threshold",
                           "--m", "2", "--n-max", "20")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["n_star"] == 6
    assert rec["results"]["persists"] is True


def test_threshold_and_stem_table_cli_m6(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "threshold",
                           "--m", "6", "--n-max", "50")
    assert code == 0
    assert json.loads(out)["results"]["n_star"] == 8
    code, out, _ = run_cli(capsys, "--deterministic", "stem-table", "--m", "6")
    assert code == 0
    assert json.loads(out)["results"]["classes"] == 21


def test_scan_cli_with_warnings_exits_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("A_\n!!bad\nBW\n")
    code, out, _ = run_cli(capsys, "--deterministic", "scan",
                           "--file", str(corpus), "--max-order", "6")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["graphs_scanned"] == 2
    assert any("line 2" in w for w in rec["warnings"])


def test_tree_bound_cli(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "tree-bound", "--n-max", "5")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["summary"].startswith("PASS")
    assert rec["results"]["trees_checked"] == 1 + 1 + 3 + 16 + 125


def test_stem_table_with_n(capsys):
    code, out, _ = run_cli(capsys, "--deterministic", "stem-table",
                           "--m", "2", "--n", "3")
    rec = json.loads(out)
    assert code == 0
    rows = {(r["a"], r["b"]): r for r in rec["rows"]}
    assert rows[(2, 1)]["stems_bipartite"] == "1"
    assert rows[(2, 1)]["class_size_bipartite"] == str(1 * 3 * 1 * 3**2)


def test_census_jobs_env_sets_default(monkeypatch):
    from subtree_census.cli import build_parser
    monkeypatch.setenv("CENSUS_JOBS", "3")
    args = build_parser().parse_args(["tree-bound", "--n-max", "4"])
    assert args.jobs == 3


def test_scan_output_byte_identical_across_jobs(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("A_\nBW\nC~\nD?{\n")
    _, out1, _ = run_cli(capsys, "--deterministic", "--jobs", "1", "scan",
                         "--file", str(corpus))
    _, out2, _ = run_cli(capsys, "--deterministic", "--jobs", "2", "scan",
                         "--file", str(corpus))
    assert out1 == out2


def test_census_jobs_env_malformed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CENSUS_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--m", "2", "--n-max", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "CENSUS_JOBS" in err


def test_threshold_full_table_rows_match_graph_mean(capsys):
    from subtree_census.stems import graph_mean_order
    code, out, _ = run_cli(capsys, "--deterministic", "threshold",
                           "--m", "3", "--n-max", "30", "--full-table")
    rec = json.loads(out)
    assert code == 0
    assert [row["n"] for row in rec["rows"]] == list(range(1, 31))
    for row in rec["rows"]:
        ms = graph_mean_order("split", 3, row["n"])
        mb = graph_mean_order("bipartite", 3, row["n"])
        assert row["mu_split"] == str(ms) and row["mu_bipartite"] == str(mb)
        assert row["sign"] == (ms > mb) - (ms < mb)


def test_mu_count_beyond_int_str_digit_limit(capsys):
    from subtree_census.families import fan_broom_stats

    code, out, _ = run_cli(capsys, "--deterministic", "mu",
                           "--family", "fan", "--L", "4", "--s", "8000", "--k", "1")
    assert code == 0
    res = json.loads(out)["results"]
    stats = fan_broom_stats(4, 8000, 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(res["count"]) > limit
        assert int(res["count"]) == stats.count
        assert int(res["total_order"]) == stats.total_order
        num, den = map(int, res["mu"].split("/"))
        assert Fraction(num, den) == Fraction(stats.total_order, stats.count)
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_str_matches_str():
    from subtree_census.cli import _int_str

    rng = random.Random(11)
    values = [0, 1, -1, 1 << 8000, (1 << 8001) - 1, -(1 << 20000)]
    values += [rng.getrandbits(bits) for bits in (7999, 8001, 8200, 40000, 100003)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for v in values:
            assert _int_str(v) == str(v)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_scan_max_order_below_1_exits_2(tmp_path, capsys, max_order):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("FXhew\n")
    code, out, err = run_cli(capsys, "scan", "--file", str(corpus), "--max-order", max_order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "max_order" in err


def test_scan_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "scan", "--file", str(tmp_path / "missing.g6"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing.g6" in err


def test_mu_family_broom_and_chorded_match_library(capsys):
    from subtree_census.families import broom_stats, chorded_broom_stats

    cases = [(("--family", "broom", "--L", "6", "--s", "2"), broom_stats(6, 2)),
             (("--family", "chorded", "--L", "9", "--s", "5", "--chords", "0-4, 4-8"),
              chorded_broom_stats(9, 5, [(0, 4), (4, 8)]))]
    for argv, stats in cases:
        code, out, _ = run_cli(capsys, "--deterministic", "mu", *argv)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["count"] == str(stats.count)
        assert res["total_order"] == str(stats.total_order)


@pytest.mark.parametrize("argv", [
    ("--family", "chorded", "--L", "9", "--s", "5", "--chords", "0-x"),
    ("--family", "broom", "--L", "6", "--s", "2", "--k", "3"),
    ("--family", "chorded", "--L", "6", "--s", "2", "--k", "1", "--chords", "0-3"),
    ("--family", "broom", "--L", "6", "--s", "2", "--chords", "0-3"),
    ("--family", "fan", "--L", "6", "--s", "2", "--k", "1", "--chords", "0-3"),
])
def test_mu_family_flag_mismatch_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "mu", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv,want", [
    (("--family", "broom", "--L", "5", "--s", "-1"), 2),
    (("--family", "broom", "--L", "1", "--s", "3"), 2),
    (("--family", "fan", "--L", "3", "--s", "3", "--k", "-1"), 2),
    (("--family", "chorded", "--L", "6", "--s", "3", "--chords", "0-4,4-0"), 2),
    (("--family", "chorded", "--L", "6", "--s", "3", "--chords", "0-9"), 2),
    (("--family", "chorded", "--L", "6", "--s", "3", "--chords", "0-1"), 2),
    (("--family", "broom", "--L", "23", "--s", "3"), 3),
])
def test_mu_family_bad_values_exit_codes(capsys, argv, want):
    code, out, err = run_cli(capsys, "mu", *argv)
    assert code == want
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv,want", [
    (("threshold", "--m", "100", "--n-max", "0"), 3),
    (("threshold", "--m", "0", "--n-max", "0"), 2),
    (("threshold", "--m", "-3", "--n-max", "-5"), 2),
    (("stem-table", "--m", "-2"), 2),
    (("stem-table", "--m", "2", "--n", "-1"), 2),
    (("threshold", "--m", "100", "--n-max", "-1"), 3),
])
def test_range_checks_independent_of_other_argument(capsys, argv, want):
    code, out, _ = run_cli(capsys, *argv)
    assert code == want and out == ""


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_below_1_exits_2(monkeypatch, capsys, value):
    argv = ["tree-bound", "--n-max", "3"]
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", value] + argv)
    assert exc.value.code == 2
    monkeypatch.setenv("CENSUS_JOBS", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "CENSUS_JOBS" in capsys.readouterr().err


def test_stem_table_n_below_m_minus_1_has_empty_classes(capsys):
    from subtree_census.census import subtree_stats_kirchhoff
    from subtree_census.graphs import (make_complete, make_complete_bipartite,
                                       make_complete_split, make_empty)

    for m, n in ((3, 1), (2, 0)):
        code, out, _ = run_cli(capsys, "--deterministic", "stem-table",
                               "--m", str(m), "--n", str(n))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == m * (m + 1) // 2
        for row in rows:
            if row["b"] > n:
                assert row["class_size_split"] == row["class_size_bipartite"] == "0"
                assert row["class_mean"] == ""
        # the classes plus the n single B-vertices partition the subtrees
        hosts = {"split": make_complete_split(m, n) if n else make_complete(m),
                 "bipartite": make_complete_bipartite(m, n) if n else make_empty(m)}
        for variant, host in hosts.items():
            sizes = sum(int(row[f"class_size_{variant}"]) for row in rows)
            assert sizes + n == subtree_stats_kirchhoff(host).count


def test_stem_table_power_beyond_exponent_cap_exits_3(capsys):
    code, out, err = run_cli(capsys, "stem-table", "--m", "3", "--n", "600000")
    assert code == 3
    assert out == "" and "exponent cap" in err


@pytest.mark.parametrize("argv,flag", [
    (("--path", "10", "--family", "broom", "--L", "6", "--s", "2", "--k", "3"), "--family"),
    (("--graph6", "A_", "--path", "3"), "--path"),
    (("--family", "broom", "--graph6", "A_", "--L", "6", "--s", "2"), "--graph6"),
])
def test_mu_graph_sources_are_mutually_exclusive(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["mu", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not allowed with argument" in err


@pytest.mark.parametrize("argv,flag", [
    (("--graph6", "A_", "--L", "6"), "--L"),
    (("--path", "10", "--s", "2"), "--s"),
    (("--path", "10", "--k", "3"), "--k"),
    (("--graph6", "A_", "--chords", "0-3"), "--chords"),
])
def test_mu_family_flags_need_family(capsys, argv, flag):
    code, out, err = run_cli(capsys, "mu", *argv)
    assert code == 2
    assert out == "" and err == f"error: {flag} applies only to --family\n"


def test_tree_bound_cayley_violation_exits_4(monkeypatch, capsys):
    from subtree_census import search
    monkeypatch.setattr(search, "_forest_aut", lambda kids, aut: 1)
    code, out, err = run_cli(capsys, "--deterministic", "tree-bound", "--n-max", "5")
    assert code == 4 and out == ""
    assert "internal error" in err and "n**(n-2)" in err
