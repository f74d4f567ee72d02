"""Box-ball states and the carrier time evolutions.

A state is a finite window of letters in {1..n}, conceptually padded by
the vacuum letter n on both sides.  The time evolution T_l threads a
capacity-l carrier through the cells left to right, and the full
evolution T is T_l at l = #letters, where T_l saturates; the recorded
local h values sum to the conserved quantities E_l, and their second
differences count solitons by length.  E_l stops changing past the
longest soliton, so the spectrum sweeps l only until it does.

The carrier is an element of B_l stored as counts of the letters 1..n-1
it holds (its load), the other l - load letters being the vacuum n.  Its
exchange with one cell is the R-matrix B_l (x) B_1 -> B_1 (x) B_l, so a
pass costs O(n) per cell whatever l is.  T_l^-1 is T_l conjugated by the
mirror that reverses the cells and swaps each letter x < n with n - x.
"""

from typing import NamedTuple


class State:
    """Cells of a box-ball configuration with an absolute origin offset.

    Cells are stored as a tuple; positions are counted from ``origin`` so
    evolution (which may extend the window) never renumbers existing cells.
    Text form uses '.' for the vacuum letter and digits for the rest, one
    character per cell for n <= 9 and comma-separated cells otherwise, with
    an optional "@k " prefix carrying a nonzero origin.
    """

    __slots__ = ("n", "origin", "cells")

    def __init__(self, cells, n, origin=0):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {n!r}")
        if type(origin) is not int:
            raise ValueError(f"origin must be an integer, got {origin!r}")
        cells = tuple(cells)
        for x in cells:
            if type(x) is not int or not 1 <= x <= n:
                raise ValueError(f"cell letter {x!r} out of range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _trusted(cls, cells, n, origin):
        """A state from a tuple of letters already known to lie in 1..n, unchecked.

        Only for cells the library derived from a checked state; input from
        outside goes through ``State(...)`` or ``State.from_text``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cells", cells)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("State is immutable")

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return (self.n, self.origin, self.cells) == (other.n, other.origin, other.cells)

    def __hash__(self):
        return hash((self.n, self.origin, self.cells))

    def __repr__(self):
        return f"State({self.to_text()!r}, n={self.n})"

    @property
    def nonvacuum_count(self):
        return len(self.cells) - self.cells.count(self.n)

    def trim(self):
        """Canonical form: outer vacuum stripped, origin adjusted."""
        cells = self.cells
        lo = 0
        hi = len(cells)
        while lo < hi and cells[lo] == self.n:
            lo += 1
        while hi > lo and cells[hi - 1] == self.n:
            hi -= 1
        if lo == hi:
            return State._trusted((), self.n, 0)
        return State._trusted(cells[lo:hi], self.n, self.origin + lo)

    def to_text(self):
        if self.n > 9:
            body = ",".join("." if x == self.n else str(x) for x in self.cells)
        else:
            body = "".join("." if x == self.n else str(x) for x in self.cells)
        if self.origin:
            return f"@{self.origin} {body}"
        return body

    @classmethod
    def from_text(cls, text, n):
        s = text.strip()
        origin = 0
        if s.startswith("@"):
            head, _, rest = s.partition(" ")
            digits = head[1:].removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad origin prefix {head!r}")
            origin = int(head[1:])
            s = rest.strip()
        wide = n > 9
        cells = []
        col = 1
        for field in (s.split(",") if wide and s else s):
            if field == ".":
                cells.append(n)
            elif field.isascii() and field.isdigit() and 1 <= int(field) <= n:
                cells.append(int(field))
            else:
                raise ValueError(f"column {col}: unexpected {'cell' if wide else 'character'} {field!r}")
            col += len(field) + 1 if wide else 1
        return cls(cells, n, origin)


class CarrierTrace(NamedTuple):
    """One carrier sweep: transformed cells and local h values."""

    out_state: State
    h_values: tuple


def _check_capacity(l):
    if type(l) is not int or l < 1:
        raise ValueError(f"carrier capacity must be an integer >= 1, got {l!r}")


def _check_steps(steps):
    if type(steps) is not int or steps < 0:
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")


def _sweep(cells, n, l):
    """Thread a capacity-l carrier through `cells` and drain it on the right.

    Returns the emitted letters and the h value of each exchange.  A cell v
    meets the carrier as follows: if it holds a letter below v, the largest
    such letter leaves and v joins (h = -1); otherwise, below capacity, v
    joins and a vacuum leaves (h = 0); otherwise the largest held letter
    leaves and v joins (h = 0).  A vacuum cell never joins, so the drain
    over appended vacuum cells emits the held letters largest first, one
    per cell, each with h = -1.
    """
    held = [0] * n  # held[x] counts the letter x in 1..n-1; held[0] stays 0
    load = 0
    out = []
    hs = []
    emit = out.append
    record = hs.append
    for v in cells:
        if not load:
            if v != n:
                held[v] = load = 1
            emit(n)
            record(0)
            continue
        x = v - 1
        while x and not held[x]:
            x -= 1
        if x:
            held[x] -= 1
            if v == n:
                load -= 1
            else:
                held[v] += 1
            emit(x)
            record(-1)
        elif load < l:
            held[v] += 1
            load += 1
            emit(n)
            record(0)
        else:
            x = n - 1
            while not held[x]:
                x -= 1
            held[x] -= 1
            held[v] += 1
            emit(x)
            record(0)
    for x in range(n - 1, 0, -1):
        out += [x] * held[x]
    hs += [-1] * load
    return out, hs


def carrier_pass(p, l):
    """Sweep a capacity-l carrier across the state, left to right.

    The carrier starts as all vacuum; one vacuum cell is appended on the
    right per letter it still holds after the last cell, which drains it
    back to all vacuum, so the trace always covers the full interaction.
    One h value in {-1, 0} is recorded per processed cell.
    """
    _check_capacity(l)
    out, hs = _sweep(p.cells, p.n, l)
    return CarrierTrace(State(out, p.n, p.origin), tuple(hs))


def energy(p, l):
    """The conserved quantity E_l: minus the sum of the carrier h values."""
    _check_capacity(l)
    return -sum(_sweep(p.cells, p.n, l)[1])


def trajectory(p, capacity=None, steps=1):
    """Apply the time evolution repeatedly, returning one CarrierTrace per step.

    capacity None means the full evolution T: one carrier pass per step at
    capacity max(1, #letters), where T_l has saturated (T_l = T for every
    l >= #letters).
    """
    if capacity is not None:
        _check_capacity(capacity)
    _check_steps(steps)
    traces = []
    state = p
    for _ in range(steps):
        trace = carrier_pass(state, max(1, state.nonvacuum_count) if capacity is None else capacity)
        traces.append(trace)
        state = trace.out_state
    return traces


def evolve(p, capacity=None, steps=1):
    """The state after `steps` applications of T_capacity (T itself when None)."""
    traces = trajectory(p, capacity, steps)
    return traces[-1].out_state if traces else p


def _mirror(cells, n):
    """The cells reversed, with each letter x < n swapped for n - x, as a tuple."""
    swap = (*range(n, 0, -1), n)
    return tuple([swap[x] for x in reversed(cells)])


def evolve_inverse(p, l, steps=1):
    """Undo T_l (T itself when l is None, at capacity max(1, #letters)).

    T_l^-1 = mirror . T_l . mirror, where the mirror reverses the cells and
    swaps each letter x < n with n - x.  The cells the forward pass appends
    to drain its carrier land on the left, lowering the origin by their
    number.
    """
    if l is not None:
        _check_capacity(l)
    _check_steps(steps)
    state = p
    for _ in range(steps):
        n = state.n
        out, _ = _sweep(_mirror(state.cells, n), n, max(1, state.nonvacuum_count) if l is None else l)
        drained = len(out) - len(state.cells)
        state = State._trusted(_mirror(out, n), n, state.origin - drained)
    return state


class EnergySpectrum(NamedTuple):
    """E_l for l = 0..top and the soliton counts N_l = -E_{l-1} + 2E_l - E_{l+1}."""

    e_values: dict
    n_values: dict

    def census(self):
        """Lengths with a nonzero count, as {length: count}."""
        return {l: c for l, c in self.n_values.items() if c}


def spectrum(p):
    """Energies and soliton counts, swept over l = 1, 2, ... until E_l stabilizes.

    E_l - E_{l-1} counts the solitons of length >= l, so once it is 0 it stays
    0.  The sweep stops at the first such l, where N_l = 0; every larger l has
    the same E_l and N_l = 0.  That l is at most #letters + 1.
    """
    e = {0: 0, 1: energy(p, 1)}
    l = 1
    while e[l] != e[l - 1]:
        l += 1
        e[l] = energy(p, l)
    nvals = {k: -e[k - 1] + 2 * e[k] - e.get(k + 1, e[k]) for k in range(1, l + 1)}
    return EnergySpectrum(e, nvals)
