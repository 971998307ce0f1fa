"""Command-line interface: subcommands, formats, and the exit-code contract."""

import json
import subprocess
import sys

from catschett.objects.permutations import catalan

CLI = [sys.executable, "-m", "catschett.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(CLI + list(args), input=stdin,
                          capture_output=True, text=True)


def test_enumerate_avoiders():
    out = run_cli("enumerate", "avoiders", "3", "--pattern", "231")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["1 2 3", "1 3 2", "2 1 3", "3 1 2", "3 2 1"]


def test_enumerate_dyck_one():
    out = run_cli("enumerate", "dyck", "1")
    assert out.returncode == 0
    assert out.stdout == "EN\n"


def test_enumerate_empty_size_emits_empty_line():
    out = run_cli("enumerate", "avoiders", "0", "--pattern", "321")
    assert out.returncode == 0
    assert out.stdout == "\n"


def test_enumerate_counts():
    for family, n, expected in (("btree", 4, catalan(4)), ("ptree", 4, catalan(4)),
                                ("walkpair", 4, catalan(4)), ("laguerre", 4, 24),
                                ("motzkin2", 3, catalan(4))):
        out = run_cli("enumerate", family, str(n))
        assert out.returncode == 0
        assert len(out.stdout.splitlines()) == expected


def test_enumerate_usage_errors():
    assert run_cli("enumerate", "nope", "3").returncode == 2
    assert run_cli("enumerate", "avoiders", "-1").returncode == 2
    assert run_cli("enumerate", "avoiders", "99").returncode == 2
    assert run_cli("enumerate", "dyck", "3", "--pattern", "321").returncode == 2


def test_stats_descent_example():
    out = run_cli("stats", stdin="3 1 8 9 7 2 4 5 6\n")
    assert out.returncode == 0
    record = json.loads(out.stdout)
    assert record["DES"] == [1, 4, 5]
    assert record["odr"] == 5


def test_stats_left_peak_example():
    out = run_cli("stats", stdin="3 2 7 1 6 5 4\n")
    record = json.loads(out.stdout)
    assert record["LPK"] == [3, 6, 7]
    assert record["lpk_o"] == 2
    assert record["lpk_e"] == 1


def test_stats_identity():
    out = run_cli("stats", stdin="1 2 3\n")
    record = json.loads(out.stdout)
    assert record["DES"] == []
    assert record["mnd"] == 0


def test_stats_parse_failure_reports_column():
    out = run_cli("stats", stdin="3 x 1\n")
    assert out.returncode == 2
    assert "column 2" in out.stderr


def test_stats_handles_paths_and_trees():
    out = run_cli("stats", stdin="EENN\n(. .)\n(())\n")
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert records[0]["Comp"] == [1, 1]
    assert records[1]["LC"] == [1]
    assert records[2]["nodes"] == 2


def test_map_round_trip():
    out = run_cli("map", "psi", stdin="2 4 5 1 3 6 8 7 9\n")
    assert out.returncode == 0
    assert out.stdout == "EEEENNENNNENEENNEN\n"
    back = run_cli("map", "psi", "--dir", "inv", stdin=out.stdout)
    assert back.stdout == "2 4 5 1 3 6 8 7 9\n"


def test_map_unicode_alias():
    ascii_out = run_cli("map", "upsilon", stdin="3 1 2\n")
    alias_out = run_cli("map", "υ", stdin="3 1 2\n")
    assert ascii_out.stdout == alias_out.stdout == "((. .) (. .))\n"


def test_map_rejects_inadmissible_input():
    out = run_cli("map", "Psi", stdin="4 1 3 2\n")
    assert out.returncode == 2


def test_schett_text():
    out = run_cli("schett", "4")
    assert out.returncode == 0
    assert out.stdout == "trees: x^4 + 8*x^2*y^2 + y^4 + 2*x^2 + 2*y^2\n"


def test_schett_routes_agree_in_json():
    out = run_cli("schett", "5", "--route", "all", "--format", "json")
    body = json.loads(out.stdout)
    assert body["routes"]["trees"] == body["routes"]["perm231"]
    assert body["routes"]["trees"] == body["routes"]["perm321"]


def test_series_text():
    out = run_cli("series", "G", "--order", "3")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["[t^1] x", "[t^2] x^2 + y", "[t^3] 4*x*y + x"]


def test_series_csv():
    out = run_cli("series", "M", "--order", "2", "--format", "csv")
    assert out.stdout.splitlines() == ["t,x,y,coeff", "1,0,0,1", "2,0,0,1", "2,1,0,1"]


def test_series_usage_error_without_name():
    assert run_cli("series").returncode == 2


def test_mna_table_rows_sum_to_catalan():
    out = run_cli("series", "--table", "mna", "--n", "12", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 13
    for line in lines[1:]:
        cells = [int(tok) for tok in line.split(",")]
        assert sum(cells[1:]) == catalan(cells[0])


def test_verify_pass_exit_zero():
    out = run_cli("verify", "thm1.2ii", "--n", "5")
    assert out.returncode == 0
    assert out.stdout.startswith("PASS thm1.2ii (n=5):")


def test_verify_unknown_check_is_usage_error():
    assert run_cli("verify", "nope").returncode == 2
    assert run_cli("verify").returncode == 2


def test_verify_out_of_range_override_is_usage_error():
    for args in (("thm1.3", "--n", "-1"), ("thm1.3", "--n", "99"),
                 ("eq:G", "--order", "-1")):
        out = run_cli("verify", *args)
        assert out.returncode == 2, args
        assert "PASS" not in out.stdout
        assert "enumeration bound" in out.stderr


def test_verify_json_deterministic():
    first = run_cli("verify", "eq:eo", "--order", "6", "--format", "json")
    second = run_cli("verify", "eq:eo", "--order", "6", "--format", "json")
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert a["check"] == "eq:eo"
    assert a["order"] == 6
    assert a["pass"] is True


def test_verify_list():
    out = run_cli("verify", "--list")
    assert out.returncode == 0
    names = out.stdout.split()
    assert "thm1.2i" in names and "all" in names


def test_verify_multiple_checks():
    out = run_cli("verify", "lem3.1", "--check", "eq:G", "--order", "6",
                  "--format", "json")
    body = json.loads(out.stdout)
    assert [row["check"] for row in body] == ["lem3.1", "eq:G"]
    assert out.returncode == 0
