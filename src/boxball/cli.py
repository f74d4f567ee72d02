"""Command-line front end with stable, golden-file friendly text output."""

import argparse
import math
import sys

from . import dynamics, rmatrix, solitons
from .crystal import format_element
from .dynamics import State
from .rmatrix import format_affine
from .tensor import parse_tensor


# At about 20 us per case (18-20 us measured from 8,000 to 343,000 cases under
# CPython 3.11 on x86-64), this bounds one ybe run to about twenty seconds.
YBE_MAX_CASES = 1_000_000


class CliError(Exception):
    pass


def _check_n(n):
    if not 2 <= n <= 9:
        raise CliError(f"--n must be in 2..9 for the compact text format, got {n}")


def _integer(text):
    """The value of an optional '-' then ASCII digits, else None.

    int() alone also reads non-ASCII digits, '_' and '+', which the text
    formats refuse.
    """
    digits = text.removeprefix("-")
    return int(text) if digits.isascii() and digits.isdigit() else None


def _alphabet_size(text):
    """argparse type for --n, with the message of type=int."""
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _capacity(text):
    if text == "inf":
        return None
    value = _integer(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"capacity must be a positive integer or 'inf', got {text!r}")
    return value


def _at_least(low):
    """argparse type for an integer option that must be >= low."""

    def parse(text):
        value = _integer(text)
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _read_lines(args):
    try:
        if args.file:
            with open(args.file) as fh:
                raw = fh.read().splitlines()
        else:
            raw = sys.stdin.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {'--file' if args.file else 'stdin'}: {exc}")
    return [(i, line) for i, line in enumerate(raw, start=1) if line.strip() and not line.lstrip().startswith("#")]


def _parse_states(args):
    states = []
    for lineno, line in _read_lines(args):
        try:
            states.append(State.from_text(line, args.n))
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}")
    return states


def _each_state(args):
    """The input states, with a blank line printed between consecutive ones."""
    for k, state in enumerate(_parse_states(args)):
        if k:
            print()
        yield state


def cmd_evolve(args):
    for state in _each_state(args):
        print(state.to_text())
        for q in dynamics.states(state, args.capacity, args.steps):
            print(q.to_text())
            if args.show_h:
                print("# H=" + "".join(str(-h) for h in dynamics.h_values(state, q)))
            state = q
    return 0


def cmd_inverse(args):
    for state in _each_state(args):
        print(state.to_text())
        for q in dynamics.states(dynamics.mirror(state), args.capacity, args.steps):
            print(dynamics.mirror(q).to_text())
    return 0


def cmd_energy(args):
    for state in _each_state(args):
        spec = dynamics.spectrum(state)
        last = len(spec.n_values)
        print("l E N")
        # past the table E_l stays at its last value and N_l is 0
        for l in range(1, (args.lmax or last) + 1):
            print(f"{l} {spec.e_values[min(l, last)]} {spec.n_values.get(l, 0)}")
    return 0


def cmd_rmatrix(args):
    inputs = [("pair", args.pair)] if args.pair is not None else [(f"line {i}", line) for i, line in _read_lines(args)]
    for where, text in inputs:
        try:
            t = parse_tensor(text, args.n)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}")
        if len(t) != 2:
            raise CliError(f"{where}: expected exactly two factors, got {len(t)}")
        (c1, c2), h = rmatrix.iso_with_energy(t[0], t[1], args.n)
        print(f"({format_element(c1, args.n)})|({format_element(c2, args.n)}) H={h}")
    return 0


def cmd_ybe(args):
    sizes = tuple(_integer(x) for x in args.sizes.split(","))
    if None in sizes:
        raise CliError(f"--sizes must be three comma-separated integers, got {args.sizes!r}")
    if len(sizes) != 3 or any(l < 1 for l in sizes):
        raise CliError(f"--sizes must be three positive integers, got {args.sizes!r}")
    cases = math.prod(math.comb(l + args.n - 1, args.n - 1) for l in sizes)
    if cases > YBE_MAX_CASES:
        raise CliError(f"--sizes {args.sizes} at n={args.n} needs {cases} cases, more than the limit of {YBE_MAX_CASES}")
    report = rmatrix.yang_baxter_check(*sizes, args.n)
    if report.ok:
        print(f"PASS sizes={args.sizes} n={args.n} cases={report.cases}")
        return 0
    start, lhs, rhs = report.counterexample
    print(f"FAIL sizes={args.sizes} n={args.n}")
    print("input: " + " ".join(format_affine(x) for x in start))
    print("lhs:   " + " ".join(format_affine(x) for x in lhs))
    print("rhs:   " + " ".join(format_affine(x) for x in rhs))
    return 1


def cmd_scatter(args):
    status = 0
    for state in _each_state(args):
        try:
            report = solitons.run_scattering(state, args.rule, args.max_steps)
        except ValueError as exc:
            raise CliError(str(exc))
        except solitons.ScatteringBudgetError as exc:
            found = ", ".join(f"{s.length}@{s.position}" for s in exc.last_solitons)
            raise CliError(f"{exc} with solitons (length@position) {found}")
        print("in:  " + " ".join(format_affine(x) for x in report.in_labels))
        print("out: " + " ".join(format_affine(x) for x in report.out_labels_simulated))
        print("pred: " + " ".join(format_affine(x) for x in report.out_labels_predicted))
        print("MATCH" if report.match else "MISMATCH")
        print("tableau in:")
        print(solitons.format_tableau(report.tableau_in))
        print("tableau out:")
        print(solitons.format_tableau(report.tableau_out))
        if not report.match:
            status = 1
    return status


def cmd_tableau(args):
    for state in _each_state(args):
        rows = solitons.bump_tableau(state)
        print(solitons.format_tableau(rows) if rows else "(empty)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="boxball", description="Box-ball system toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_alphabet_size, required=True, help="alphabet size (vacuum letter is n)")
        p.add_argument("--file", help="read input from a file instead of stdin")

    p = sub.add_parser("evolve", help="apply the time evolution to states")
    common(p)
    p.add_argument("--capacity", type=_capacity, default=None, help="carrier capacity, or 'inf' (default)")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.add_argument("--show-h", action="store_true", help="print the local H values after each row")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("inverse", help="apply the inverse time evolution")
    common(p)
    p.add_argument("--capacity", type=_capacity, required=True, help="carrier capacity, or 'inf' to undo T")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("energy", help="print the E_l / N_l table of states")
    common(p)
    p.add_argument("--lmax", type=_at_least(1), default=None, help="print exactly rows 1..lmax (default: one past stabilization)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("rmatrix", help="apply the combinatorial R-matrix to a pair")
    common(p)
    p.add_argument("pair", nargs="?", help="pair text like '1123|23' (default: read lines from stdin)")
    p.set_defaults(func=cmd_rmatrix)

    p = sub.add_parser("ybe", help="exhaustively check the Yang-Baxter equation")
    common(p)
    p.add_argument("--sizes", required=True, help="three comma-separated sizes, e.g. 3,2,1")
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("scatter", help="run a scattering experiment and compare with the prediction")
    common(p)
    p.add_argument("--rule", type=_capacity, default=None, help="evolution capacity, or 'inf' (default)")
    p.add_argument("--max-steps", type=_at_least(0), default=400)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("tableau", help="print the row-bumping tableau of states")
    common(p)
    p.set_defaults(func=cmd_tableau)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_n(args.n)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
