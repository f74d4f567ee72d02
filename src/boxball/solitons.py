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
from typing import NamedTuple

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


def _runs(p):
    """Maximal non-vacuum runs as (absolute position, letters)."""
    n, origin = p.n, p.origin
    runs = []
    current = []
    start = None
    for idx, x in enumerate(p.cells):
        if x != n:
            if not current:
                start = origin + idx
            current.append(x)
        elif current:
            runs.append((start, tuple(current)))
            current = []
    if current:
        runs.append((start, tuple(current)))
    return runs


def detect(p, t=0, check_census=True):
    """Split a state into solitons, left to right.

    Succeeds only when every non-vacuum run is weakly decreasing and the
    run-length census matches the counts derived from the energy spectrum;
    both gates fail on mid-collision states.
    """
    runs = _runs(p)
    for pos, word in runs:
        if any(a < b for a, b in zip(word, word[1:])):
            raise NotSeparatedError(f"run at position {pos} is not weakly decreasing: {word}")
    if check_census:
        census = Counter(len(word) for _, word in runs)
        expected = spectrum(p).census()
        if dict(census) != expected:
            raise NotSeparatedError(f"run census {dict(census)} differs from spectral counts {expected}")
    return [Soliton(len(word), word, pos, t) for pos, word in runs]


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
    lengths = [len(x.b) for x in labels]
    if len(set(lengths)) != len(lengths):
        raise ValueError(f"equal-length solitons are not supported, got lengths {lengths}")
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"lengths must be strictly decreasing, got {lengths}")
    if order is None:
        order = [i for k in range(len(labels) - 1, 0, -1) for i in range(k)]
    for i in order:
        labels[i], labels[i + 1] = predict_two_body(labels[i], labels[i + 1])
    out_lengths = [len(x.b) for x in labels]
    if out_lengths != sorted(out_lengths):
        raise ValueError(f"swap order {list(order)!r} did not fully reverse the lengths")
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


def _separated(state, t, want):
    """The solitons at time t if every run is weakly decreasing and the sorted lengths are `want`, else None."""
    try:
        sols = detect(state, t, check_census=False)
    except NotSeparatedError:
        return None
    return sols if sorted(s.length for s in sols) == want else None


def run_scattering(p, rule=None, max_steps=400):
    """Evolve a separated multi-soliton state until the solitons reorder.

    The initial lengths must be strictly decreasing left to right.  The run
    stops once the state decomposes with the lengths fully reversed and the
    labels stay put for two further steps; the simulated outgoing labels are
    then compared against the factorized two-body prediction.

    The census is checked against the energy spectrum once, on the input:
    every T_l conserves it, so a later state decomposes exactly when its runs
    are weakly decreasing with the input's sorted lengths.  A sliding window
    of three states draws each time step once from one stream of `states`.
    """
    _check_run(rule, max_steps, "max_steps")
    sols = detect(p, 0)
    lengths = [s.length for s in sols]
    if any(a <= b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"initial soliton lengths must be strictly decreasing, got {lengths}")
    if rule is not None and len(lengths) > 1 and rule <= lengths[1]:
        raise ValueError(f"evolution rule must exceed the second-longest soliton, got {rule} <= {lengths[1]}")
    in_labels = tuple(label(s, rule) for s in sols)
    predicted = predict_m_body(in_labels) if len(in_labels) > 1 else in_labels
    tab_in = bump_tableau(p)

    want = sorted(lengths)
    later = states(p, rule, max_steps + 2)
    window = [(p, sols)]
    last_good = (0, sols)
    for t in range(max_steps + 1):
        while len(window) < 3:
            state = next(later)
            window.append((state, _separated(state, t + len(window), want)))
        state, now = window.pop(0)
        if now is not None:
            out = tuple(label(s, rule) for s in now)
            if [s.length for s in now] == want and all(
                later is not None and tuple(label(s, rule) for s in later) == out for _, later in window
            ):
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
    time evolution.
    """
    n = p.n
    rows = []
    for x in reversed(p.cells):
        if x == n:
            continue
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return tuple(tuple(r) for r in rows)


def format_tableau(rows):
    return "\n".join(" ".join(str(x) for x in row) for row in rows)


def state_with_solitons(placements, n, tail=2):
    """Build a state from (position, content) pairs, content as read left to right.

    `tail` vacuum cells follow the rightmost soliton.
    """
    if type(tail) is not int or tail < 0:
        raise ValueError(f"tail must be an integer >= 0, got {tail!r}")
    if not placements:
        return State((n,) * tail, n)
    if any(pos < 0 for pos, _ in placements):
        raise ValueError("soliton positions must be nonnegative")
    end = max(pos + len(word) for pos, word in placements)
    cells = [n] * (end + tail)
    for pos, word in placements:
        for k, x in enumerate(word):
            if not 1 <= x < n:
                raise ValueError(f"soliton letter {x!r} out of range 1..{n - 1}")
            if cells[pos + k] != n:
                raise ValueError(f"overlapping solitons at position {pos + k}")
            cells[pos + k] = x
    return State(cells, n)
