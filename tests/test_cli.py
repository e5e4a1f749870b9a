import json
import time

import pytest

import antiring as ar
import antiring.cli
from antiring.cli import run

from conftest import five_element_lattice

BOOL_UPPER = "semiring boolean\nn 2\n1 1\n0 1\n"
POWERSET_INVERTIBLE = "semiring powerset:2\nn 2\n{1} {2}\n{2} {1}\n"
CHAIN_SHIFT = "semiring chain:3\nn 3\n0 2 0\n0 0 2\n0 0 0\n"
TRACE_ZERO = "semiring powerset:2\nn 2\n{} {1}\n{2} {}\n"
MOD2_TABLES = "size 2\nzero 0\none 1\nadd\n0 1\n1 0\nmul\n0 0\n0 1\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (
        ("upper", BOOL_UPPER),
        ("inv", POWERSET_INVERTIBLE),
        ("shift", CHAIN_SHIFT),
        ("tz", TRACE_ZERO),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    t = tmp_path / "mod2.tbl"
    t.write_text(MOD2_TABLES)
    paths["mod2"] = str(t)
    return paths


def test_count_formula():
    out = run(["count", "nilpotent", "-n", "3", "-q", "2"])
    assert (out.exit_code, out.stdout) == (0, "25\n")
    assert out.stderr == ""


def test_count_brute_force_matches_formula():
    formula = run(["count", "nilpotent", "-n", "3", "-q", "2"])
    brute = run(["count", "nilpotent", "-n", "3", "-q", "2", "--brute-force"])
    assert brute.exit_code == 0
    assert brute.stdout == formula.stdout


def test_count_brute_force_custom_semiring():
    out = run(["count", "nilpotent", "-n", "2", "--brute-force", "--semiring", "powerset:2"])
    assert (out.exit_code, out.stdout) == (0, "9\n")


def test_capacity_and_nmax():
    assert run(["capacity", "-n", "3"]).stdout == "3\n"
    assert run(["capacity", "-n", "1"]).stdout == "0\n"
    assert run(["nmax", "-k", "4"]).stdout == "6\n"


def test_check_and_invert_exit_codes(files):
    out = run(["check", "invertible", files["upper"]])
    assert (out.exit_code, out.stdout) == (0, "no\n")
    out = run(["invert", files["upper"]])
    assert out.exit_code == 1
    assert "row 1" in out.stderr
    assert out.stdout == ""

    out = run(["invert", files["inv"]])
    assert out.exit_code == 0
    assert out.stdout == POWERSET_INVERTIBLE  # self-inverse


def test_factorize_output(files):
    out = run(["factorize", files["inv"]])
    assert out.exit_code == 0
    assert out.stdout.splitlines() == [
        "diag {1,2} {1,2}",
        "term {1} perm 1 2",
        "term {2} perm 2 1",
    ]


def test_check_nilpotent_and_index(files):
    assert run(["check", "nilpotent", files["shift"]]).stdout == "yes\n"
    assert run(["index", files["shift"]]).stdout == "3\n"
    out = run(["index", files["inv"]])
    assert out.exit_code == 1


def test_decompose_round_trip(files):
    out = run(["decompose", "squarezero", files["shift"]])
    assert out.exit_code == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "summands 2"
    assert lines[-1] == "check sum=ok squares=ok"
    # re-read every matrix block through the parser, bit-exactly
    blocks = []
    current = []
    for line in lines[1:-1]:
        if line.startswith("semiring ") and current:
            blocks.append(current)
            current = []
        current.append(line)
    blocks.append(current)
    total = None
    for block in blocks:
        text = "\n".join(block) + "\n"
        m = ar.parse_matrix(text)
        assert ar.format_matrix(m) == text
        total = m if total is None else total + m
    assert total == ar.parse_matrix(CHAIN_SHIFT)


def test_decompose_tracezero(files):
    out = run(["decompose", "tracezero", files["tz"]])
    assert out.exit_code == 0
    assert out.stdout.splitlines()[0] == "summands 2"
    out = run(["decompose", "tracezero", files["inv"]])
    assert out.exit_code == 1
    assert "diagonal" in out.stderr


def test_semiring_validate(files):
    out = run(["semiring", "validate", files["mod2"]])
    assert out.exit_code == 0
    lines = out.stdout.splitlines()
    assert "is_zerosumfree false" in lines
    assert "is_semiring true" in lines
    assert "witness zerosumfree 1 1" in lines


def test_poly_output():
    out = run(["poly", "-n", "3", "--at", "3"])
    assert out.stdout.splitlines() == [
        "q^3 6",
        "q^2 -6",
        "q^1 0",
        "q^0 1",
        "value at q=3: 109",
    ]


def test_gl_enumerate():
    out = run(["gl", "enumerate", "--semiring", "chain:3", "-n", "2"])
    assert out.exit_code == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "count 2"
    assert lines[1:] == [
        "semiring chain:3",
        "n 2",
        "0 2",
        "2 0",
        "semiring chain:3",
        "n 2",
        "2 0",
        "0 2",
    ]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_brute_force_dimension_below_one_is_a_domain_error(n):
    for argv in (
        ["count", "nilpotent", "-n", n, "--brute-force", "-q", "2"],
        ["gl", "enumerate", "--semiring", "chain:3", "-n", n],
    ):
        out = run(argv)
        assert (out.exit_code, out.stdout) == (1, "")
        assert out.stderr == "error: dimension must be >= 1\n"


def test_brute_force_count_over_a_degenerate_carrier_is_a_domain_error():
    out = run(["count", "nilpotent", "-n", "1", "--brute-force", "--semiring", "chain:1"])
    assert (out.exit_code, out.stdout) == (1, "")
    assert out.stderr.startswith("error: ") and "0 = 1" in out.stderr


def test_orthdecomp():
    out = run(["orthdecomp", "--semiring", "powerset:2"])
    assert out.stdout.splitlines() == ["length 2", "parts {1} {2}"]
    out = run(["orthdecomp", "--semiring", "naturals"])
    assert out.exit_code == 1


def test_usage_errors_exit_2():
    assert run(["bogus"]).exit_code == 2
    assert run([]).exit_code == 2
    assert run(["count", "nilpotent"]).exit_code == 2  # missing -n
    out = run(["count", "nilpotent", "-n", "2"])  # no -q, no --brute-force
    assert out.exit_code == 2
    out = run(["count", "nilpotent", "-n", "2", "-q", "2", "--semiring", "boolean"])
    assert out.exit_code == 2


def test_budget_exit_3(files, monkeypatch):
    monkeypatch.setenv("ANTIRING_MAX_STATES", "10")
    out = run(["count", "nilpotent", "-n", "3", "-q", "2", "--brute-force"])
    assert out.exit_code == 3
    assert "512" in out.stderr
    monkeypatch.setenv("ANTIRING_MAX_STATES", "not-a-number")
    out = run(["count", "nilpotent", "-n", "3", "-q", "2", "--brute-force"])
    assert out.exit_code == 2


@pytest.mark.parametrize("argv, count", [
    (["count", "nilpotent", "-n", "100", "--brute-force", "--semiring", "chain:3"], "3^10000"),
    (["gl", "enumerate", "--semiring", "chain:3", "-n", "100"], "3^10000"),
    (["count", "nilpotent", "-n", "50", "--brute-force", "--semiring", "chain:3"], "3^2500"),
    (["count", "nilpotent", "-n", "20000", "--brute-force", "--semiring", "chain:3"], "3^400000000"),
    (["gl", "enumerate", "--semiring", "powerset:20000", "-n", "1"], "more than 100000000"),
])
def test_oversized_brute_force_is_refused_at_once(argv, count):
    start = time.perf_counter()
    out = run(argv)
    assert time.perf_counter() - start < 1
    assert out.exit_code == 3 and out.stdout == ""
    desc = argv[argv.index("--semiring") + 1]
    assert out.stderr == f"error: {desc} has {count} matrices, over the budget of 100000000\n"


def test_a_huge_budget_still_words_a_refusal(monkeypatch):
    # 3^9025 ~ 1e4306 and 2^14500 ~ 1e4365 are under this budget squared,
    # but too long to print
    budget = 10**2200
    monkeypatch.setenv("ANTIRING_MAX_STATES", str(budget))
    for argv, count in (
        (["count", "nilpotent", "-n", "95", "--brute-force", "--semiring", "chain:3"], "3^9025"),
        (["gl", "enumerate", "--semiring", "powerset:14500", "-n", "1"], f"more than {budget}"),
    ):
        out = run(argv)
        assert out.exit_code == 3 and out.stdout == ""
        desc = argv[argv.index("--semiring") + 1]
        assert out.stderr == f"error: {desc} has {count} matrices, over the budget of {budget}\n"


def test_missing_file_is_domain_error():
    out = run(["invert", "/nonexistent/m.txt"])
    assert out.exit_code == 1
    assert out.stdout == ""


def test_counting_over_the_cap_is_a_budget_refusal():
    for argv in (["poly", "-n", "600"], ["count", "nilpotent", "-n", "600", "-q", "2"]):
        out = run(argv)
        assert out.exit_code == 3 and out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "600" in out.stderr and str(ar.MAX_COUNT_N) in out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["count", "nilpotent", "-n", "100", "-q", str(10**1000)],
    ["count", "nilpotent", "-n", "100", "-q", "1000000"],
    ["poly", "-n", "22", "--at", str(10**1000)],
    ["nmax", "-k", "20000"],
])
def test_huge_answers_are_budget_refusals(argv):
    out = run(argv)
    assert out.exit_code == 3 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "bits, over the answer budget of" in out.stderr


def test_benchmark_sizes_stay_answered():
    for argv in (
        ["count", "nilpotent", "-n", "32", "-q", "7"],
        ["poly", "-n", "22", "--at", "7"],
        ["nmax", "-k", "30"],
        ["--format", "json", "count", "nilpotent", "-n", "100", "-q", "6"],
    ):
        assert run(argv).exit_code == 0


def test_exhausted_recursion_is_a_domain_error(monkeypatch):
    # the catch-all also turns an exhausted stack or heap into exit 1
    for error in (RecursionError, MemoryError):
        def exhausted(n, error=error):
            raise error()

        monkeypatch.setattr(antiring.dag_counting, "nilpotent_count_polynomial", exhausted)
        out = run(["poly", "-n", "3"])
        assert out.exit_code == 1 and out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr


def test_nilpotency_over_a_non_split_table(tmp_path):
    # lattice5: 0, a, b, a|b, 1 with a*b = 0; the 2-cycle [[0, a], [b, 0]] is nilpotent
    (tmp_path / "lattice5.tbl").write_text(ar.format_tables(five_element_lattice().tables))
    mfile = tmp_path / "cycle.txt"
    mfile.write_text("semiring table:lattice5.tbl\nn 2\n0 1\n2 0\n")
    assert run(["check", "nilpotent", str(mfile)]) == antiring.cli.CommandOutcome(0, "yes\n", "")
    assert run(["index", str(mfile)]) == antiring.cli.CommandOutcome(0, "2\n", "")
    out = run(["decompose", "squarezero", str(mfile)])
    assert out.exit_code == 1 and out.stdout == ""
    assert "table:lattice5.tbl" in out.stderr and "Traceback" not in out.stderr


def test_tables_over_256_elements_are_refused_at_once(tmp_path):
    # the axiom scan's cap: a 257-element max/min chain exits 3 before any scan
    (tmp_path / "chain257.tbl").write_text(ar.format_tables(ar.to_tables(ar.chain(257))))
    mfile = tmp_path / "m.txt"
    mfile.write_text("semiring table:chain257.tbl\nn 2\n0 1\n0 0\n")
    for argv in (["semiring", "validate", str(tmp_path / "chain257.tbl")],
                 ["--format", "json", "semiring", "validate", str(tmp_path / "chain257.tbl")],
                 ["check", "nilpotent", str(mfile)]):
        start = time.perf_counter()
        out = run(argv)
        elapsed = time.perf_counter() - start
        assert (out.exit_code, out.stdout) == (3, ""), argv
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "257 elements" in out.stderr and "Traceback" not in out.stderr
        assert elapsed < 1.0, (argv, elapsed)


def test_help_exits_zero():
    out = run(["--help"])
    assert out.exit_code == 0
    assert "antiring" in out.stdout


def test_json_format(files):
    out = run(["--format", "json", "count", "nilpotent", "-n", "3", "-q", "2"])
    assert json.loads(out.stdout) == {"count": 25}

    out = run(["--format", "json", "factorize", files["inv"]])
    data = json.loads(out.stdout)
    assert data["diag"] == ["{1,2}", "{1,2}"]
    assert data["terms"] == [
        {"coeff": "{1}", "perm": [1, 2]},
        {"coeff": "{2}", "perm": [2, 1]},
    ]

    out = run(["--format", "json", "decompose", "squarezero", files["shift"]])
    data = json.loads(out.stdout)
    assert data["sum_ok"] and data["squares_ok"]
    assert len(data["summands"]) == 2

    out = run(["--format", "json", "semiring", "validate", files["mod2"]])
    data = json.loads(out.stdout)
    assert data["flags"]["is_zerosumfree"] is False
    assert data["witnesses"]["zerosumfree"] == [[1, 1]]


def test_matrix_over_table_semiring_via_cli(tmp_path):
    (tmp_path / "bool.tbl").write_text(
        "size 2\nzero 0\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n"
    )
    mfile = tmp_path / "m.txt"
    mfile.write_text("semiring table:bool.tbl\nn 2\n0 1\n0 0\n")
    out = run(["check", "nilpotent", str(mfile)])
    assert (out.exit_code, out.stdout) == (0, "yes\n")


def test_outputs_end_with_newline(files):
    for argv in (
        ["capacity", "-n", "5"],
        ["check", "invertible", files["inv"]],
        ["factorize", files["inv"]],
        ["orthdecomp", "--semiring", "boolean"],
    ):
        out = run(argv)
        assert out.stdout.endswith("\n")
