"""Shared fixtures: golden displays, seeded random-state builders, the hypothesis
strategy `states`, a broken R-matrix, the Yang-Baxter check walked triple by
triple, the dual column, an exact bytecode counter,
the sign-list tensor operators, the pairing in any order, the pass-per-l
spectrum, the ball-moving rule, the mirror, and the carrier folded one cell at a
time from a given exchange, `fold_pass` for T_l and `fold_inverse` for T_l^-1:
the pairing's `iso_with_energy` or the crystal graph's `iso_oracle`."""

import random
import sys
from bisect import bisect_left
from itertools import product

from hypothesis import strategies as st

from boxball import crystal, tensor
from boxball.dynamics import EnergySpectrum, State, energy
from boxball.rmatrix import Affine, Pairing, YangBaxterReport, apply_r, iso_with_energy
from boxball.solitons import state_with_solitons

# Three solitons of lengths 3, 2, 1 scattering over seven time steps.
THREE_SOLITON_ROWS = [
    "332...11...2..............",
    "...332..11..2.............",
    "......33..2112............",
    "........33...1221.........",
    "..........33..1..221......",
    "............33.1....221...",
    "..............3.31.....221",
]

# A single soliton of length 3 drifting right by 3 per step.
SINGLE_SOLITON_ROWS = [
    "....332.............",
    ".......332..........",
    "..........332.......",
    ".............332....",
]


def random_state(rng, max_cells=30, max_letters=10, n=None):
    """A random finite window with a few non-vacuum letters."""
    if n is None:
        n = rng.randint(2, 4)
    length = rng.randint(1, max_cells)
    cells = [n] * length
    for _ in range(rng.randint(0, min(max_letters, length))):
        cells[rng.randrange(length)] = rng.randint(1, n - 1)
    return State(cells, n)


@st.composite
def states(draw, max_n=6, max_cells=25, max_origin=0, min_n=2, min_cells=0):
    """A state over n = min_n..max_n of min_cells..max_cells cells, any letters, at an origin in -max_origin..max_origin."""
    n = draw(st.integers(min_n, max_n))
    cells = draw(st.lists(st.integers(1, n), min_size=min_cells, max_size=max_cells))
    return State(cells, n, draw(st.integers(-max_origin, max_origin)))


def acceptance_ensemble():
    """The 1000 seeded random states swept by acceptance criteria 7 and 11."""
    rng = seeded(20260808)
    return [random_state(rng, max_cells=30, max_letters=10) for _ in range(1000)]


def random_content(rng, length, n):
    """A weakly decreasing word over {1..n-1}, as read left to right in a state."""
    return tuple(sorted((rng.randint(1, n - 1) for _ in range(length)), reverse=True))


def random_separated_state(rng, lengths, n, min_gap_extra=1):
    """Solitons of the given lengths with gaps wide enough to decompose."""
    placements = []
    pos = 0
    for length in lengths:
        content = random_content(rng, length, n)
        placements.append((pos, content))
        pos += length + length + min_gap_extra + rng.randint(0, 5)
    return state_with_solitons(placements, n)


def letters(p):
    """The sorted non-vacuum letters of a state."""
    return sorted(x for x in p.cells if x != p.n)


def seeded(seed):
    return random.Random(seed)


def broken_r(b, bp, n=None):
    """The R-matrix with H lowered by one whenever the left factor starts with 1.

    It breaks the Yang-Baxter equation: on B_2 (x) B_1 (x) B_1 at n = 2 the
    third triple already fails.
    """
    image, h = iso_with_energy(b, bp, n)
    return image, h - (b[0] == 1)


def reference_yang_baxter(l1, l2, l3, n):
    """`yang_baxter_check` spelled out: (R x 1)(1 x R)(R x 1) against (1 x R)(R x 1)(1 x R) through `apply_r`.

    Walks the triples of zero exponents in the order of `itertools.product`
    over the three `crystal.elements`, counts them, and stops at the first
    one on which the two sides differ.
    """
    r12 = lambda x, y, z: (*apply_r(x, y, n), z)
    r23 = lambda x, y, z: (x, *apply_r(y, z, n))
    cases = 0
    for triple in product(*(crystal.elements(l, n) for l in (l1, l2, l3))):
        start = tuple(Affine(0, b) for b in triple)
        lhs, rhs = r12(*r23(*r12(*start))), r23(*r12(*r23(*start)))
        cases += 1
        if lhs != rhs:
            return YangBaxterReport(False, cases, (start, lhs, rhs))
    return YangBaxterReport(True, cases)


def dual(w):
    """The dual column: the letters negated, in reverse order so they stay sorted."""
    return tuple([-x for x in reversed(w)])


def bytecode_count(fn, *args):
    """The bytecode instructions that a call fn(*args) executes, counted after one warm-up call.

    Counts the "opcode" events of the second call under `sys.settrace`,
    in every Python frame it opens; work done inside C functions is not
    counted.  The count is exact for one interpreter version, so ratios of
    counts pin a cost that wall-clock timing cannot.  Restores the trace
    function that was set before.
    """
    fn(*args)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def reference_tensor_e(t, i, n):
    """e_i through the spelled-out reduced signature: the rightmost surviving "-"."""
    red = tensor.reduce_signature(tensor.signature(t, i, n))
    alpha = red.signs.count("-")
    if alpha == 0:
        return None
    j = red.origins[alpha - 1]
    new = crystal.apply_e(t[j], i, n)
    if new is None:
        raise RuntimeError(f"signature rule pointed e_{i} at a dead factor of {t!r}")
    return t[:j] + (new,) + t[j + 1 :]


def reference_tensor_f(t, i, n):
    """f_i through the spelled-out reduced signature: the leftmost surviving "+"."""
    red = tensor.reduce_signature(tensor.signature(t, i, n))
    alpha = red.signs.count("-")
    if alpha == len(red.signs):
        return None
    j = red.origins[alpha]
    new = crystal.apply_f(t[j], i, n)
    if new is None:
        raise RuntimeError(f"signature rule pointed f_{i} at a dead factor of {t!r}")
    return t[:j] + (new,) + t[j + 1 :]


def pair_in_order(b, bp, order):
    """The pairing of `rmatrix.pair`, taking the right letters in `order` (indices into bp), not largest first."""
    free = list(b)
    pairs = []
    for v in (bp[k] for k in order):
        j = bisect_left(free, v) - 1
        pairs.append((v, free.pop(j), False) if j >= 0 else (v, free.pop(), True))
    return Pairing(tuple(pairs), tuple(free))


def reference_spectrum(p):
    """`dynamics.spectrum` by one carrier pass for each l = 1, 2, ... until E_l = E_{l-1}."""
    e = {0: 0, 1: energy(p, 1)}
    l = 1
    while e[l] != e[l - 1]:
        l += 1
        e[l] = energy(p, l)
    nvals = {k: -e[k - 1] + 2 * e[k] - e.get(k + 1, e[k]) for k in range(1, l + 1)}
    return EnergySpectrum(e, nvals)


def _move_balls(p, colors, step):
    """Move the balls of each color in `colors` in turn, each to the nearest empty cell `step` away.

    Within one color the ball furthest behind moves first, and each ball
    moves once.  Returns the trimmed state.
    """
    balls = {p.origin + k: x for k, x in enumerate(p.cells) if x != p.n}
    for color in colors:
        for i in sorted((k for k, x in balls.items() if x == color), reverse=step < 0):
            j = i + step
            while j in balls:
                j += step
            balls[j] = balls.pop(i)
    if not balls:
        return State((), p.n)
    lo, hi = min(balls), max(balls)
    return State([balls.get(k, p.n) for k in range(lo, hi + 1)], p.n, lo)


def ball_moving_step(p):
    """T by Takahashi's ball-moving rule, trimmed: colors n-1 down to 1, leftmost ball first, each to the right."""
    return _move_balls(p, range(p.n - 1, 0, -1), 1)


def ball_moving_inverse(p):
    """T^-1 by the mirrored rule, trimmed: colors 1 up to n-1, rightmost ball first, each to the left."""
    return _move_balls(p, range(1, p.n), -1)


def mirror(p):
    """The state reflected about position 0, each letter x < n swapped for n - x.

    The letter at absolute position x moves to -x, so the window starting at
    `origin` starts at 1 - origin - len(cells).  The mirror is an involution,
    and T_l^-1 = M T_l M ties the inverse pass to the forward one.
    """
    swap = (*range(p.n, 0, -1), p.n)
    return State([swap[x] for x in reversed(p.cells)], p.n, 1 - p.origin - len(p.cells))


def fold_pass(p, l, r):
    """One step of T_l folded from the exchange `r`: (out state, H of each exchange, carrier after the last cell).

    `r` is `iso_with_energy` (the pairing) or `iso_oracle` (the crystal
    graph), called as r(carrier, (v,), n) for B_l (x) B_1 -> B_1 (x) B_l.
    The all-vacuum carrier crosses the cells left to right, and at most l
    vacuum cells are appended until it is all vacuum again.
    """
    n = p.n
    cells = p.cells
    vacuum = carrier = held = (n,) * l
    out = []
    hs = []
    while len(out) < len(cells) or carrier != vacuum:
        assert len(out) < len(cells) + l, "carrier failed to drain"
        if len(out) == len(cells):
            held = carrier
        v = cells[len(out)] if len(out) < len(cells) else n
        ((w,), carrier), h = r(carrier, (v,), n)
        out.append(w)
        hs.append(h)
    return State(out, n, p.origin), tuple(hs), held


def fold_inverse(p, l, r):
    """One step of T_l^-1 folded from the exchange `r`, as in `fold_pass`: the out state.

    `r` is called as r((v,), carrier, n) for B_1 (x) B_l -> B_l (x) B_1.
    The carrier crosses the cells right to left, and at most l vacuum
    cells are prepended until it drains; the origin drops by one per
    prepended cell.
    """
    n = p.n
    cells = p.cells[::-1]
    vacuum = carrier = (n,) * l
    out = []
    while len(out) < len(cells) or carrier != vacuum:
        assert len(out) < len(cells) + l, "inverse carrier failed to drain"
        v = cells[len(out)] if len(out) < len(cells) else n
        (carrier, (w,)), _ = r((v,), carrier, n)
        out.append(w)
    return State(out[::-1], n, p.origin + len(cells) - len(out))
