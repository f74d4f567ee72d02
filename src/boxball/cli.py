"""Command-line front end with stable, golden-file friendly text output."""

import argparse
import sys

from . import dynamics, rmatrix, solitons
from .crystal import format_element
from .dynamics import State, _integer
from .rmatrix import _ybe_cost, format_affine
from .tensor import parse_tensor


# Budgets of `ybe` in the units of `rmatrix._ybe_cost`, one case each.
# YBE_MAX_CASES bounds the tables, which have at most half as many entries
# as there are cases.
YBE_MAX_CASES = 1_000_000
YBE_MAX_WORK = 40_000_000


class CliError(Exception):
    pass


def _check_n(n):
    if not 2 <= n <= 9:
        raise CliError(f"--n must be in 2..9 for the compact text format, got {n}")


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
        if args.file is not None:
            with open(args.file) as fh:
                raw = fh.read().splitlines()
        else:
            raw = sys.stdin.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {'stdin' if args.file is None else '--file'}: {exc}")
    return [(i, line) for i, line in enumerate(raw, start=1) if line.strip() and not line.lstrip().startswith("#")]


def _each_state(args, run=lambda state: state):
    """run(state) of each input state, all parsed and then run before the first is yielded, with a blank line printed between consecutive ones."""
    states = []
    for lineno, line in _read_lines(args):
        try:
            states.append(State.from_text(line, args.n))
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}")
    for k, item in enumerate([run(state) for state in states]):
        if k:
            print()
        yield item


def cmd_evolve(args):
    """The rows of `evolve`, or of `inverse` with args.inverse set, which has no --show-h."""
    for state in _each_state(args):
        print(state.to_text())
        for q in dynamics.states(state, args.capacity, args.steps, inverse=args.inverse):
            print(q.to_text())
            if args.show_h:
                print("# H=" + "".join(str(-h) for h in dynamics.h_values(state, q)))
            state = q
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
    if args.pair is not None and args.file is not None:
        raise CliError("give a pair or --file, not both")
    inputs = [("pair", args.pair)] if args.pair is not None else [(f"line {i}", line) for i, line in _read_lines(args)]
    pairs = []
    for where, text in inputs:
        try:
            t = parse_tensor(text, args.n)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}")
        if len(t) != 2:
            raise CliError(f"{where}: expected exactly two factors, got {len(t)}")
        pairs.append(t)
    # all pairs are parsed before the first is printed, as `_each_state` does for states
    for b, bp in pairs:
        (c1, c2), h = rmatrix.iso_with_energy(b, bp)
        print(f"({format_element(c1, args.n)})|({format_element(c2, args.n)}) H={h}")
    return 0


def cmd_ybe(args):
    sizes = tuple(_integer(x) for x in args.sizes.split(","))
    if None in sizes:
        raise CliError(f"--sizes must be three comma-separated integers, got {args.sizes!r}")
    if len(sizes) != 3 or any(l < 1 for l in sizes):
        raise CliError(f"--sizes must be three positive integers, got {args.sizes!r}")
    cases, work = _ybe_cost(sizes, args.n)
    if cases > YBE_MAX_CASES:
        raise CliError(f"--sizes {args.sizes} at n={args.n} needs {cases} cases, more than the limit of {YBE_MAX_CASES}")
    if work > YBE_MAX_WORK:
        raise CliError(f"--sizes {args.sizes} at n={args.n} needs {work} units of work, more than the limit of {YBE_MAX_WORK}")
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
    def run(state):
        try:
            return solitons.run_scattering(state, args.rule, args.max_steps)
        except ValueError as exc:
            raise CliError(str(exc))
        except solitons.ScatteringBudgetError as exc:
            found = ", ".join(f"{s.length}@{s.position}" for s in exc.last_solitons)
            raise CliError(f"{exc} with solitons (length@position) {found}")

    status = 0
    for report in _each_state(args, run):
        print("in:  " + " ".join(format_affine(x) for x in report.in_labels))
        print("out: " + " ".join(format_affine(x) for x in report.out_labels_simulated))
        print("pred: " + " ".join(format_affine(x) for x in report.out_labels_predicted))
        print("MATCH" if report.match else "MISMATCH")
        for side, rows in (("in", report.tableau_in), ("out", report.tableau_out)):
            print(f"tableau {side}:")
            print(solitons.format_tableau(rows))
        if not report.match:
            status = 1
    return status


def cmd_tableau(args):
    for state in _each_state(args):
        print(solitons.format_tableau(solitons.bump_tableau(state)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="boxball", description="Box-ball system toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads_input=True):
        p.add_argument("--n", type=_alphabet_size, required=True, help="alphabet size (vacuum letter is n)")
        if reads_input:
            p.add_argument("--file", help="read input from a file instead of stdin")

    p = sub.add_parser("evolve", help="apply the time evolution to states")
    common(p)
    p.add_argument("--capacity", type=_capacity, default=None, help="carrier capacity, or 'inf' (default)")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.add_argument("--show-h", action="store_true", help="print the local H values after each row")
    p.set_defaults(func=cmd_evolve, inverse=False)

    p = sub.add_parser("inverse", help="apply the inverse time evolution")
    common(p)
    p.add_argument("--capacity", type=_capacity, required=True, help="carrier capacity, or 'inf' to undo T")
    p.add_argument("--steps", type=_at_least(0), default=1)
    p.set_defaults(func=cmd_evolve, inverse=True, show_h=False)

    p = sub.add_parser("energy", help="print the E_l / N_l table of states")
    common(p)
    p.add_argument("--lmax", type=_at_least(1), default=None, help="print exactly rows 1..lmax (default: one past stabilization)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("rmatrix", help="apply the combinatorial R-matrix to a pair")
    common(p)
    p.add_argument("pair", nargs="?", help="pair text like '1123|23' (default: read lines from stdin)")
    p.set_defaults(func=cmd_rmatrix)

    p = sub.add_parser("ybe", help="exhaustively check the Yang-Baxter equation")
    common(p, reads_input=False)
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
