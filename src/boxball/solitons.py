"""Soliton detection, affine labels, and the factorized scattering law.

A soliton is a maximal weakly decreasing non-vacuum run; under T_k an
isolated one moves min(k, l) cells per step.  Each soliton is labeled by
an affinized element over the reduced alphabet {1..n-1}: the reversed
content word with exponent minus the phase.  Two-body scattering swaps
labels through the R-matrix with an extra exponent shift of twice the
shorter length, and multi-body scattering factorizes into such swaps.
"""

from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .crystal import _check_int
from .dynamics import State, _check_run, spectrum, states
from .rmatrix import Affine, iso_with_energy

__all__ = [
    "Soliton",
    "ScatteringReport",
    "NotSeparatedError",
    "ScatteringBudgetError",
    "detect",
    "label",
    "predict_two_body",
    "predict_m_body",
    "run_scattering",
    "state_with_solitons",
    "bump_tableau",
    "format_tableau",
]


class NotSeparatedError(ValueError):
    """The state does not decompose into separated solitons."""


class ScatteringBudgetError(RuntimeError):
    """The step budget ran out before the outgoing solitons separated."""

    def __init__(self, message, last_time=None, last_solitons=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_solitons = last_solitons


class Soliton(NamedTuple):
    """A localized excitation: content as read left to right, plus position and time."""

    length: int
    content: tuple
    position: int
    time: int


def detect(p, t=0, check_census=True):
    """Split a state into solitons, left to right, in one pass over the cells.

    Succeeds only when every non-vacuum run is weakly decreasing and the
    run-length census matches the counts derived from the energy spectrum;
    both gates fail on mid-collision states.  The first run with an ascent
    is named in full.
    """
    n, origin = p.n, p.origin
    cells = p.cells + (n,)  # a vacuum sentinel closes the last run
    sols = []
    start = None
    for i, x in enumerate(cells):
        if x == n:
            if start is not None:
                sols.append(Soliton(i - start, cells[start:i], origin + start, t))
                start = None
        elif start is None:
            start = i
        elif cells[i - 1] < x:
            word = cells[start:cells.index(n, i)]
            raise NotSeparatedError(f"run at position {origin + start} is not weakly decreasing: {word}")
    if check_census:
        census = dict(Counter(s.length for s in sols))
        expected = spectrum(p).census()
        if census != expected:
            raise NotSeparatedError(f"run census {census} differs from spectral counts {expected}")
    return sols


def label(s, capacity=None):
    """The affine label of a soliton observed under T_capacity (T itself when None).

    The phase is position minus velocity times time, with velocity
    min(capacity, length); the element is the reversed content word.
    """
    velocity = s.length if capacity is None else min(capacity, s.length)
    gamma = s.position - velocity * s.time
    return Affine(-gamma, tuple(reversed(s.content)))


def predict_two_body(a, b):
    """Scatter two labels with the left soliton strictly longer.

    Elements swap through the R-matrix over the reduced alphabet and the
    exponents shift by +-delta with delta = 2*len(short) + H.
    """
    l1, l2 = len(a.b), len(b.b)
    if l1 <= l2:
        raise ValueError(f"two-body rule requires the left soliton strictly longer, got {l1} <= {l2}")
    (c1, c2), h = iso_with_energy(a.b, b.b)
    delta = 2 * l2 + h
    return Affine(b.d + delta, c1), Affine(a.d - delta, c2)


def predict_m_body(labels, order=None):
    """Scatter labels with strictly decreasing lengths into fully reversed order.

    The reversal is composed from adjacent two-body swaps at the positions
    in `order`, by default the bubble-sort sequence 0..m-2, 0..m-3, ..., 0
    for m labels.  Any order that fully reverses the lengths yields the same
    result (a consequence of the Yang-Baxter equation, property-tested).
    """
    labels = list(labels)
    m = len(labels)
    lengths = [len(x.b) for x in labels]
    if any(a <= b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"lengths must be strictly decreasing, got {lengths}")
    order = [i for k in range(m - 1, 0, -1) for i in range(k)] if order is None else list(order)
    for i in order:
        if type(i) is not int or not 0 <= i < m - 1:
            raise ValueError(f"swap position {i!r} is not an adjacent pair of {m} labels")
        labels[i], labels[i + 1] = predict_two_body(labels[i], labels[i + 1])
    out_lengths = [len(x.b) for x in labels]
    if out_lengths != sorted(out_lengths):
        raise ValueError(f"swap order {order!r} did not fully reverse the lengths")
    return tuple(labels)


class ScatteringReport(NamedTuple):
    in_labels: tuple
    out_labels_simulated: tuple
    out_labels_predicted: tuple
    match: bool
    tableau_in: tuple
    tableau_out: tuple
    final_state: State
    steps: int


def run_scattering(p, rule=None, max_steps=400):
    """Evolve a separated multi-soliton state until the solitons reorder.

    The input's soliton lengths must be strictly decreasing left to right,
    and a finite `rule` must exceed the second-longest length.  The run
    stops at the first state that decomposes with the lengths in increasing
    order; the simulated outgoing labels are then compared against the
    factorized two-body prediction.  Once the speeds increase left to right
    no pair meets again, so the labels stay fixed from then on.

    The input is split once, with its census checked against the energy
    spectrum: every T_l conserves the census, so a later state decomposes
    exactly when its runs are weakly decreasing with the input's sorted lengths.
    """
    _check_run(rule, max_steps, "max_steps")
    sols = detect(p, 0)
    lengths = [s.length for s in sols]
    if any(a <= b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"initial soliton lengths must be strictly decreasing, got {lengths}")
    if rule is not None and len(lengths) > 1 and rule <= lengths[1]:
        raise ValueError(f"evolution rule must exceed the second-longest soliton, got {rule} <= {lengths[1]}")
    in_labels = tuple(label(s, rule) for s in sols)
    predicted = predict_m_body(in_labels)
    tab_in = bump_tableau(p)

    want = sorted(lengths)
    last_good = (0, sols)
    for t, state in enumerate(chain((p,), states(p, rule, max_steps))):
        try:
            now = detect(state, t, check_census=False) if t else sols
        except NotSeparatedError:
            continue
        now_lengths = [s.length for s in now]
        if now_lengths == want:
            out = tuple(label(s, rule) for s in now)
            return ScatteringReport(
                in_labels=in_labels,
                out_labels_simulated=out,
                out_labels_predicted=predicted,
                match=out == predicted,
                tableau_in=tab_in,
                tableau_out=bump_tableau(state),
                final_state=state,
                steps=t,
            )
        if sorted(now_lengths) == want:
            last_good = (t, now)
    raise ScatteringBudgetError(
        f"no separated reordered state within {max_steps} steps;"
        f" last decomposable snapshot at t={last_good[0]}",
        last_time=last_good[0],
        last_solitons=last_good[1],
    )


def bump_tableau(p):
    """The row-bumping tableau of a state.

    Letters are read right to left with the vacuum dropped, then
    Schensted row-inserted in order; the result is invariant under every
    time evolution.  Below n = 256 the vacuum is dropped in C, by
    `bytes.translate`, so the cost follows the letters, not the window.
    A letter no smaller than a row's last one is appended to it; any other
    bumps the row's first letter above it, found by `bisect_right`.  Rows
    are plain lists of letters, so neither time nor memory depends on n.
    """
    n = p.n
    cells = p.cells
    word = bytes(cells).translate(None, bytes((n,))) if n < 256 else [x for x in cells if x != n]
    rows = []
    for x in reversed(word):
        for row in rows:
            if x >= row[-1]:
                row.append(x)
                break
            j = bisect_right(row, x)
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return tuple(tuple(r) for r in rows)


def format_tableau(rows):
    """One line per row, letters separated by spaces; a tableau of no letters is "(empty)"."""
    return "\n".join(" ".join(str(x) for x in row) for row in rows) or "(empty)"


def state_with_solitons(placements, n, tail=2):
    """Build a state from (position, content) pairs, content as read left to right.

    `tail` vacuum cells follow the rightmost soliton.
    """
    _check_int("alphabet size", n, 2)
    _check_int("tail", tail, 0)
    if not placements:
        return State((n,) * tail, n)
    for pos, _ in placements:
        _check_int("soliton position", pos, 0)
    end = max(pos + len(word) for pos, word in placements)
    cells = [n] * (end + tail)
    for pos, word in placements:
        for k, x in enumerate(word):
            if type(x) is not int or not 1 <= x < n:
                raise ValueError(f"soliton letter {x!r} out of range 1..{n - 1}")
            if cells[pos + k] != n:
                raise ValueError(f"overlapping solitons at position {pos + k}")
            cells[pos + k] = x
    return State(cells, n)
