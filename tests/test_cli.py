import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxball import dynamics, rmatrix, solitons
from boxball.cli import main
from boxball.dynamics import State, energy, evolve, evolve_inverse, h_values
from helpers import SINGLE_SOLITON_ROWS, THREE_SOLITON_ROWS, broken_r, seeded, states


def run_cli(argv, stdin="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evolve_single_soliton_display(monkeypatch, capsys):
    code, out, err = run_cli(
        ["evolve", "--n", "4", "--capacity", "3", "--steps", "3"],
        stdin=SINGLE_SOLITON_ROWS[0] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and err == ""
    assert out.splitlines() == SINGLE_SOLITON_ROWS


def test_evolve_three_soliton_display(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "4", "--steps", "6"],
        stdin=THREE_SOLITON_ROWS[0] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == THREE_SOLITON_ROWS


def test_evolve_empty_input(monkeypatch, capsys):
    code, out, err = run_cli(
        ["evolve", "--n", "4", "--steps", "2"], stdin="", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and out == "" and err == ""


def test_evolve_show_h(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "4", "--capacity", "3", "--steps", "1", "--show-h"],
        stdin="332\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == ["332", "...332", "# H=000111"]
    # each H line reads the step's own cells before and after
    code, out, _ = run_cli(
        ["evolve", "--n", "4", "--steps", "2", "--show-h"],
        stdin="332...11...2\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == ["332...11...2", "...332..11..2", "# H=0001110011001", "......33..2112", "# H=00000011001111"]


def test_evolve_output_reparses(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "4", "--steps", "2", "--show-h"],
        stdin=THREE_SOLITON_ROWS[0] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    states = [State.from_text(line, 4) for line in rows]
    assert states[1].to_text() == THREE_SOLITON_ROWS[1]
    assert states[2].to_text() == THREE_SOLITON_ROWS[2]


def test_evolve_parse_error(monkeypatch, capsys):
    code, out, err = run_cli(
        ["evolve", "--n", "4"], stdin="..33\n..x3\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "line 2" in err and "column 3" in err
    code, out, err = run_cli(["evolve", "--n", "4"], stdin="@1_0 1\n", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == "" and err == "error: line 1: bad origin prefix '@1_0'\n"


def test_evolve_file_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "states.txt"
    path.write_text(SINGLE_SOLITON_ROWS[0] + "\n")
    code, out, _ = run_cli(
        ["evolve", "--n", "4", "--capacity", "3", "--steps", "1", "--file", str(path)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == SINGLE_SOLITON_ROWS[:2]


@pytest.mark.parametrize(
    "name,message",
    [
        ("absent.txt", "cannot read --file: [Errno 2] No such file"),
        (".", "cannot read --file: [Errno 21] Is a directory"),
        ("bytes.bin", ""),  # not UTF-8; whether it decodes depends on the locale
        (None, "cannot read stdin: 'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_unreadable_input_is_an_error(name, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "bytes.bin").write_bytes(b"\xff\xfe\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n"), encoding="utf-8"))
    code = main(["evolve", "--n", "3"] + ([] if name is None else ["--file", str(tmp_path / name)]))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,stdin",
    [
        (["evolve"], "332...11...2\n"),
        (["inverse", "--capacity", "2"], "332...11...2\n"),
        (["energy"], "332...11...2\n"),
        (["rmatrix"], "1123|23\n"),
        (["scatter"], "332...11...2..............\n"),
        (["tableau"], "332...11...2\n"),
    ],
)
@pytest.mark.parametrize("form", [["--file", ""], ["--file="]])
def test_empty_file_name_does_not_read_stdin(command, stdin, form, monkeypatch, capsys):
    # an empty --file names no file, so the valid line on stdin goes unread
    code, out, err = run_cli([command[0], "--n", "4", *command[1:], *form], stdin, monkeypatch, capsys)
    assert (code, out, err) == (2, "", "error: cannot read --file: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize(
    "command,stdin,message",
    [
        (["evolve"], "332...11...2\n3.x\n", "line 2: column 3: unexpected character 'x'"),
        (["inverse", "--capacity", "2"], "332...11...2\n3.x\n", "line 2: column 3: unexpected character 'x'"),
        (["energy"], "332...11...2\n3.x\n", "line 2: column 3: unexpected character 'x'"),
        (["rmatrix"], "1123|23\n12|\n", "line 2: empty element text"),
        (["scatter"], "332...11...2..............\n1.1\n", "initial soliton lengths must be strictly decreasing, got [1, 1]"),
        (["tableau"], "332...11...2\n3.x\n", "line 2: column 3: unexpected character 'x'"),
    ],
)
def test_a_refused_later_line_leaves_stdout_empty(command, stdin, message, monkeypatch, capsys):
    # every line is read, and for scatter run, before the first is printed
    code, out, err = run_cli([command[0], "--n", "4", *command[1:]], stdin, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_inverse_round_trip(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["inverse", "--n", "4", "--capacity", "3", "--steps", "1"],
        stdin=SINGLE_SOLITON_ROWS[1] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert State.from_text(lines[1], 4).trim() == State.from_text(SINGLE_SOLITON_ROWS[0], 4).trim()
    # --capacity inf undoes T, row by row
    code, out, _ = run_cli(
        ["inverse", "--n", "4", "--capacity", "inf", "--steps", "6"],
        stdin=THREE_SOLITON_ROWS[6] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    rows = [State.from_text(line, 4).trim() for line in out.splitlines()]
    assert rows == [State.from_text(row, 4).trim() for row in reversed(THREE_SOLITON_ROWS)]


def exact_windows(n):
    """Seeded windows at every origin -5..5 over n, empty ones included."""
    rng = seeded(n)
    windows = [State((), n, origin) for origin in range(-5, 6)]
    for origin in range(-5, 6):
        for length in (1, 5, 12):
            windows.append(State([rng.choice([n, n, *range(1, n)]) for _ in range(length)], n, origin))
    return windows


@pytest.mark.parametrize("n", [2, 4, 9])
def test_evolve_and_inverse_rows_equal_the_library(n, monkeypatch, capsys):
    # every printed row, origin and padding included, is the library's state
    # after that many steps, and every H row the h of the step just printed
    windows = exact_windows(n)
    stdin = "".join(p.to_text() + "\n" for p in windows)

    def with_h(run):
        rows = [run[0].to_text()]
        for a, b in zip(run, run[1:]):
            rows += [b.to_text(), "# H=" + "".join(str(-h) for h in h_values(a, b))]
        return rows

    for capacity in ("1", "2", "3", "4", "5", "inf"):
        cap = None if capacity == "inf" else int(capacity)
        for steps in range(5):
            options = ["--n", str(n), "--capacity", capacity, "--steps", str(steps)]
            evolved = [[evolve(p, cap, k) for k in range(steps + 1)] for p in windows]
            expected = {
                ("evolve",): [[q.to_text() for q in run] for run in evolved],
                ("evolve", "--show-h"): [with_h(run) for run in evolved],
                ("inverse",): [[evolve_inverse(p, cap, k).to_text() for k in range(steps + 1)] for p in windows],
            }
            for command, blocks in expected.items():
                code, out, err = run_cli([command[0], *options, *command[1:]], stdin, monkeypatch, capsys)
                assert (code, err) == (0, "")
                assert out == "\n\n".join("\n".join(rows) for rows in blocks) + "\n", (command, capacity, steps)


def test_energy_table(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["energy", "--n", "4"], stdin=THREE_SOLITON_ROWS[0] + "\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.splitlines() == ["l E N", "1 3 1", "2 5 1", "3 6 1", "4 6 0"]


def test_energy_table_vacuum_and_lmax(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["energy", "--n", "4"], stdin="......\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.splitlines() == ["l E N", "1 0 0"]
    code, out, _ = run_cli(
        ["energy", "--n", "4", "--lmax", "4"], stdin="..332..\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert out.splitlines() == ["l E N", "1 1 0", "2 2 0", "3 3 1", "4 3 0"]
    # default row count reaches one past stabilization even when the soliton
    # length equals the non-vacuum count
    code, out, _ = run_cli(
        ["energy", "--n", "4"], stdin="....332\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.splitlines() == ["l E N", "1 1 0", "2 2 0", "3 3 1", "4 3 0"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=states(max_n=9, min_cells=1, max_cells=30), lmax=st.integers(1, 40))
def test_energy_lmax_prints_exactly_lmax_rows(p, lmax, monkeypatch, capsys):
    # row l is E_l with N_l the second difference of a sweep over every l,
    # also past the point where the table stabilizes
    code, out, err = run_cli(["energy", "--n", str(p.n), "--lmax", str(lmax)], p.to_text() + "\n", monkeypatch, capsys)
    e = [0] + [energy(p, l) for l in range(1, lmax + 2)]
    assert code == 0 and err == ""
    assert out.splitlines() == ["l E N"] + [f"{l} {e[l]} {-e[l - 1] + 2 * e[l] - e[l + 1]}" for l in range(1, lmax + 1)]


def test_energy_lmax_sweeps_at_most_letters_plus_two(monkeypatch, capsys):
    sweep = dynamics._sweep
    calls = []
    monkeypatch.setattr(dynamics, "_sweep", lambda *args: calls.append(args) or sweep(*args))
    for row in (THREE_SOLITON_ROWS[0], "......", "..332.."):
        calls.clear()
        code, out, _ = run_cli(["energy", "--n", "4", "--lmax", "500"], row + "\n", monkeypatch, capsys)
        assert code == 0 and len(out.splitlines()) == 501
        assert len(calls) <= State.from_text(row, 4).nonvacuum_count + 2


def test_rmatrix_command(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["rmatrix", "--n", "4", "1123|23"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == "(12)|(1233) H=-2\n"
    code, out, _ = run_cli(
        ["rmatrix", "--n", "4"], stdin="1123|12\n2344|12\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert out.splitlines() == ["(13)|(1122) H=-1", "(44)|(1223) H=0"]
    # comma-separated letters are read at n <= 9 too, as `scatter` prints labels
    code, out, _ = run_cli(["rmatrix", "--n", "4", "2,3,3|1,1"], monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (0, "(33)|(112) H=0\n")


def test_rmatrix_rejects_bad_input(monkeypatch, capsys):
    code, out, err = run_cli(
        ["rmatrix", "--n", "4", "321|12"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and "weakly increasing" in err
    code, out, err = run_cli(
        ["rmatrix", "--n", "4", "12|12|12"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and "two factors" in err
    # the positional pair is named as such; stdin lines keep their line number
    code, out, err = run_cli(["rmatrix", "--n", "4", "12|"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and err == "error: pair: empty element text\n"
    # an explicit empty pair is an empty pair, not a cue to read stdin
    for stdin in ("", "1123|23\n"):
        code, out, err = run_cli(["rmatrix", "--n", "4", ""], stdin=stdin, monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out, err) == (2, "", "error: pair: empty element text\n")
    # every line is parsed before the first is printed
    code, out, err = run_cli(["rmatrix", "--n", "4"], stdin="12|3\n12|\n", monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", "error: line 2: empty element text\n")
    # letters are ASCII digits only: int() would read '١٢' as 12
    code, out, err = run_cli(["rmatrix", "--n", "4", "١٢|3"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == "" and err == "error: pair: bad element text '١٢'\n"


def test_rmatrix_refuses_a_pair_and_a_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("1123|23\n")
    for name in (path, tmp_path / "absent.txt"):
        code, out, err = run_cli(["rmatrix", "--n", "4", "12|3", "--file", str(name)], monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out, err) == (2, "", "error: give a pair or --file, not both\n")
    code, out, err = run_cli(["rmatrix", "--n", "4", "--file", str(path)], monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (0, "(12)|(1233) H=-2\n", "")


def test_ybe_has_no_file_option(tmp_path, monkeypatch, capsys):
    # ybe reads no input, so a --file would be ignored: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        run_cli(["ybe", "--n", "3", "--sizes", "1,1,1", "--file", str(tmp_path / "absent.txt")], monkeypatch=monkeypatch, capsys=capsys)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --file" in err


def test_ybe_command(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["ybe", "--n", "2", "--sizes", "1,1,1"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.startswith("PASS")
    code, out, err = run_cli(
        ["ybe", "--n", "3", "--sizes", "1,2"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    # 24310**3 cases: refused before any is enumerated
    code, out, err = run_cli(["ybe", "--n", "9", "--sizes", "9,9,9"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "14366628991000 cases" in err
    # an R-matrix that breaks the equation: FAIL, the counterexample, exit 1
    monkeypatch.setattr(rmatrix, "iso_with_energy", broken_r)
    code, out, err = run_cli(["ybe", "--n", "2", "--sizes", "2,1,1"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "FAIL sizes=2,1,1 n=2",
        "input: z^{0}(1,1) z^{0}(2) z^{0}(1)",
        "lhs:   z^{-3}(1) z^{0}(2) z^{3}(1,1)",
        "rhs:   z^{-2}(1) z^{-1}(2) z^{3}(1,1)",
    ]


def test_module_entry_point():
    # `python -m boxball.cli` runs sys.exit(main()); -S keeps site .pth files out
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run = lambda *args: subprocess.run([sys.executable, "-S", "-m", "boxball.cli", "ybe", *args], env=env, capture_output=True, text=True)
    done = run("--n", "4", "--sizes", "1,2,2")
    assert (done.returncode, done.stdout, done.stderr) == (0, "PASS sizes=1,2,2 n=4 cases=400\n", "")
    done = run("--n", "5", "--sizes", "5,5,5")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: --sizes 5,5,5 at n=5 needs 2000376 cases, more than the limit of 1000000\n"


def test_ybe_work_budget(monkeypatch, capsys):
    # few cases, but each exchange moves hundreds of letters: the budget
    # falls between these inputs, and is checked before any pair is exchanged
    # a stand-in check: the accepted input would take about twenty seconds
    monkeypatch.setattr(rmatrix, "yang_baxter_check", lambda *args: rmatrix.YangBaxterReport(True, 290322))
    for sizes, work in (("1,390,390", 41227439), ("1,706,706", 239761383)):
        code, out, err = run_cli(["ybe", "--n", "2", "--sizes", sizes], monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --sizes {sizes} at n=2 needs {work} units of work, more than the limit of 40000000\n"
    code, out, err = run_cli(["ybe", "--n", "2", "--sizes", "1,380,380"], monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (0, "PASS sizes=1,380,380 n=2 cases=290322\n", "")


def test_scatter_command(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["scatter", "--n", "4"], stdin=THREE_SOLITON_ROWS[0] + "\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "in:  z^{0}(2,3,3) z^{-6}(1,1) z^{-11}(2)"
    assert lines[1] == "out: z^{-8}(3) z^{-4}(1,3) z^{-5}(1,2,2)"
    assert lines[2] == "pred: z^{-8}(3) z^{-4}(1,3) z^{-5}(1,2,2)"
    assert lines[3] == "MATCH"
    assert lines[4:] == ["tableau in:", "1 1 2 3 3", "2", "tableau out:", "1 1 2 3 3", "2"]


def test_scatter_vacuum_prints_empty_tableaux(monkeypatch, capsys):
    # a line with no letters reads its tableaux as `tableau` does
    code, out, err = run_cli(["scatter", "--n", "4"], stdin="....\n", monkeypatch=monkeypatch, capsys=capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["in:  ", "out: ", "pred: ", "MATCH", "tableau in:", "(empty)", "tableau out:", "(empty)"]


def test_scatter_reports_failed_hypothesis(monkeypatch, capsys):
    code, out, err = run_cli(
        ["scatter", "--n", "4", "--rule", "2"],
        stdin="332....11......\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "exceed" in err


def test_scatter_mismatch_exits_1(monkeypatch, capsys):
    # a broken R-matrix predicts labels the simulation does not reach
    monkeypatch.setattr(solitons, "iso_with_energy", broken_r)
    code, out, err = run_cli(["scatter", "--n", "4"], stdin=THREE_SOLITON_ROWS[0] + "\n", monkeypatch=monkeypatch, capsys=capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[3] == "MISMATCH"


def test_scatter_budget_error_names_the_solitons(monkeypatch, capsys):
    # the last decomposable snapshot's solitons, length@position, close the one error line
    code, out, err = run_cli(
        ["scatter", "--n", "4", "--max-steps", "2"],
        stdin="332....11...2.....\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and out == ""
    assert err == (
        "error: no separated reordered state within 2 steps; last decomposable snapshot at t=2"
        " with solitons (length@position) 3@6, 2@11, 1@14\n"
    )


@pytest.mark.parametrize(
    "line,message",
    [
        ("@3 2112..21..", "run at position 3 is not weakly decreasing: (2, 1, 1, 2)"),
        ("33.22", "run census {2: 2} differs from spectral counts {1: 1, 3: 1}"),
        ("..12..31", "run at position 2 is not weakly decreasing: (1, 2)"),  # only the first bad run
    ],
)
def test_scatter_refuses_an_unseparated_input(line, message, monkeypatch, capsys):
    code, out, err = run_cli(["scatter", "--n", "4"], stdin=line + "\n", monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_tableau_command(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["tableau", "--n", "4"],
        stdin=THREE_SOLITON_ROWS[0] + "\n" + THREE_SOLITON_ROWS[6] + "\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == ["1 1 2 3 3", "2", "", "1 1 2 3 3", "2"]
    code, out, _ = run_cli(
        ["tableau", "--n", "4"], stdin="....\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert out == "(empty)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--n", "4", "--steps", "-1"],
        ["evolve", "--n", "4", "--steps", "x"],
        ["inverse", "--n", "4", "--capacity", "0"],
        ["inverse", "--n", "4", "--capacity", "3", "--steps", "-2"],
        ["energy", "--n", "4", "--lmax", "-3"],
        ["energy", "--n", "4", "--lmax", "0"],
        ["scatter", "--n", "4", "--max-steps", "-1"],
    ],
)
def test_numeric_options_rejected_at_parse_time(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("..332..\n"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # --capacity shares the evolve/scatter type, which also takes 'inf'
    expected = "capacity must be a positive integer or 'inf'" if argv[-2] == "--capacity" else "must be an integer >="
    assert f"argument {argv[-2]}: {expected}" in captured.err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("ybe --n 3", "--sizes", "١,1,1"),
        ("ybe --n 2", "--sizes", "1_0,1,1"),
        ("ybe --n 2", "--sizes", "1,+1,1"),
        ("ybe --n 2", "--sizes", "1, 1,1"),
        ("evolve --steps 2", "--n", "٤"),
        ("energy", "--n", "+4"),
        ("evolve --n 4", "--steps", "٢"),
        ("evolve --n 4", "--capacity", "+1_0"),
        ("inverse --n 4", "--capacity", "٣"),
        ("energy --n 4", "--lmax", "３"),
        ("energy --n 4", "--lmax", " 3"),
        ("scatter --n 4", "--rule", "+3"),
        ("scatter --n 4", "--max-steps", "1_0"),
    ],
)
def test_numeric_options_take_ascii_digits_only(command, option, value, monkeypatch, capsys):
    # int() alone reads these spellings; every numeric option takes an
    # optional '-' then ASCII digits, as the text formats do
    monkeypatch.setattr("sys.stdin", io.StringIO("..332..\n"))
    try:
        code = main([*command.split(), option, value])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    assert len(errors) == 1 and option in errors[0] and repr(value) in errors[0]


FUZZ_COMMANDS = [["evolve"], ["inverse", "--capacity", "2"], ["energy"], ["rmatrix"], ["scatter"], ["tableau"]]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    n=st.integers(2, 9),
    stdin=st.text(st.sampled_from(".123456789|,@-# \n") | st.characters(), max_size=30),
)
def test_any_stdin_exits_cleanly(command, n, stdin, monkeypatch, capsys):
    # whatever arrives on stdin ends in a result or a one-line error, never a traceback
    code, out, err = run_cli([command[0], "--n", str(n), *command[1:]], stdin, monkeypatch, capsys)
    assert code == 0 and err == "" or code == 2 and err.startswith("error: ") and err.count("\n") == 1


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_closed_stdout_exits_1(monkeypatch):
    # a reader that went away, as in `boxball evolve ... | head -1`, ends the run with no traceback
    monkeypatch.setattr("sys.stdin", io.StringIO("332\n"))
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["evolve", "--n", "4"]) == 1


def test_n_range_enforced(monkeypatch, capsys):
    code, out, err = run_cli(
        ["evolve", "--n", "12"], stdin="..\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and "--n" in err


def test_determinism(monkeypatch, capsys):
    args = ["energy", "--n", "4"]
    first = run_cli(args, stdin=THREE_SOLITON_ROWS[0] + "\n", monkeypatch=monkeypatch, capsys=capsys)
    second = run_cli(args, stdin=THREE_SOLITON_ROWS[0] + "\n", monkeypatch=monkeypatch, capsys=capsys)
    assert first == second
