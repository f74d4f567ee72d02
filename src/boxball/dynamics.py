"""Box-ball states and the carrier time evolutions.

A state is a finite window of letters in {1..n}, conceptually padded by
the vacuum letter n on both sides.  The time evolution T_l threads a
capacity-l carrier through the cells left to right, and the full
evolution T is T_l at l = #letters, where T_l saturates.  A pass returns
only the letters it emits: its exchange with a cell has h = -1 where the
letter out is below the letter in, the drained cells taking in the vacuum
n, and h = 0 elsewhere.  Minus the sum of h is the conserved E_l, whose
second differences count solitons by length.  E_l stops changing past the
longest soliton, so the spectrum sweeps l only until it does.

The carrier is an element of B_l stored as counts of the letters 1..n-1
it holds (its load), the other l - load letters being the vacuum n.  Its
exchange with one cell is the R-matrix B_l (x) B_1 -> B_1 (x) B_l, so a
pass costs O(n) per cell whatever l is.  T_l^-1 is T_l conjugated by the
`mirror`, which reflects a state about position 0 and swaps each letter
x < n with n - x.  `states` streams the state after each pass of a run,
unchecked, counting T's capacity once per run and keeping only the current
cells; `trajectory`, the CLI and `run_scattering` are views of it, and
`h_values` reads a pass's h off its two states.  `evolve` and
`evolve_inverse` run the same passes but build only the last state.
"""

from operator import gt
from typing import NamedTuple


class State(NamedTuple("_StateFields", [("cells", tuple), ("n", int), ("origin", int)])):
    """Cells of a box-ball configuration with an absolute origin offset.

    Cells are stored as a tuple; positions are counted from ``origin`` so
    evolution (which may extend the window) never renumbers existing cells.
    Text form uses '.' for the vacuum letter and digits for the rest, one
    character per cell for n <= 9 and comma-separated cells otherwise, with
    an optional "@k " prefix carrying a nonzero origin.

    A state is the named tuple (cells, n, origin).  Construction,
    ``from_text``, ``_replace``, unpickling at any protocol and copying check
    every letter; the states the library derives from a checked one do not.
    """

    __slots__ = ()

    def __new__(cls, cells, n, origin=0):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {n!r}")
        if type(origin) is not int:
            raise ValueError(f"origin must be an integer, got {origin!r}")
        cells = tuple(cells)
        for x in cells:
            if type(x) is not int or not 1 <= x <= n:
                raise ValueError(f"cell letter {x!r} out of range 1..{n}")
        return cls._trusted(cells, n, origin)

    @classmethod
    def _trusted(cls, cells, n, origin):
        """A state from a tuple of letters already known to lie in 1..n, unchecked.

        Only for cells the library derived from a checked state; input from
        outside goes through ``State(...)`` or ``State.from_text``.
        """
        return tuple.__new__(cls, (cells, n, origin))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        """Unpickle through the checks, which pickle protocols 0 and 1 would skip."""
        return type(self), tuple(self)

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


def _check_run(capacity, steps, name="steps"):
    """Check a run's capacity (None for T) and step count before any pass runs."""
    if capacity is not None:
        _check_capacity(capacity)
    if type(steps) is not int or steps < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {steps!r}")


def _sweep(cells, n, l):
    """Thread a capacity-l carrier through `cells` and drain it on the right.

    Returns the emitted letters, one per cell.  A cell v meets the carrier
    as follows: if it holds a letter below v, the largest such letter
    leaves and v joins; otherwise, below capacity, v joins and a vacuum
    leaves; otherwise the largest held letter leaves and v joins.  A vacuum
    cell never joins, so the drain over appended vacuum cells emits the
    held letters largest first, one per cell.
    """
    held = [0] * n  # held[x] counts the letter x in 1..n-1; held[0] stays 0
    load = 0
    out = []
    emit = out.append
    for v in cells:
        if not load:
            if v != n:
                held[v] = load = 1
            emit(n)
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
        elif load < l:
            held[v] += 1
            load += 1
            emit(n)
        else:
            x = n - 1
            while not held[x]:
                x -= 1
            held[x] -= 1
            held[v] += 1
            emit(x)
    for x in range(n - 1, 0, -1):
        out += [x] * held[x]
    return out


def h_values(before, after):
    """The h of each exchange of the pass from state `before` to state `after`, by the rule above."""
    return tuple([-d for d in map(gt, before.cells, after.cells)]) + (-1,) * (len(after.cells) - len(before.cells))


def carrier_pass(p, l):
    """Sweep a capacity-l carrier across the state, left to right.

    The carrier starts as all vacuum; one vacuum cell is appended on the
    right per letter it still holds after the last cell, which drains it
    back to all vacuum, so the trace always covers the full interaction.
    Each output cell has one h value in {-1, 0}, read by `h_values`.
    """
    _check_capacity(l)
    return trajectory(p, l)[0]


def energy(p, l):
    """The conserved quantity E_l: minus the sum of `h_values`, counted without building them."""
    _check_capacity(l)
    out = _sweep(p.cells, p.n, l)
    return len(out) - len(p.cells) + sum(map(gt, p.cells, out))


def _passes(cells, n, l, steps):
    """Yield the cells after passes 1, 2, ..., steps of T_l.

    l None means T, at capacity max(1, #letters), counted once because
    every pass conserves the letters.
    """
    if l is None:
        l = max(1, len(cells) - cells.count(n))
    for _ in range(steps):
        cells = _sweep(cells, n, l)
        yield cells


def states(p, capacity=None, steps=1):
    """The states after passes 1, 2, ..., steps of T_capacity, as a lazy iterator.

    capacity None means the full evolution T: one carrier pass per step at
    capacity max(1, #letters), where T_l has saturated (T_l = T for every
    l >= #letters).  The capacity and step count are checked on the call,
    before the first pass.  Each state is built from the carrier's output
    without re-checking its letters.
    """
    _check_run(capacity, steps)
    n, origin = p.n, p.origin
    return (State._trusted(tuple(cells), n, origin) for cells in _passes(p.cells, n, capacity, steps))


def trajectory(p, capacity=None, steps=1):
    """Apply the time evolution repeatedly, returning one CarrierTrace per state of `states`."""
    qs = list(states(p, capacity, steps))
    return [CarrierTrace(q, h_values(prev, q)) for prev, q in zip([p, *qs], qs)]


def evolve(p, capacity=None, steps=1):
    """The state after `steps` applications of T_capacity (T itself when None).

    Only the current cells are kept, so memory does not grow with `steps`.
    The result is built from the carrier's output without re-checking it.
    """
    _check_run(capacity, steps)
    cells = p.cells
    for cells in _passes(cells, p.n, capacity, steps):
        pass
    return State._trusted(tuple(cells), p.n, p.origin)


def mirror(p):
    """The state reflected about position 0, each letter x < n swapped for n - x.

    The letter at absolute position x moves to -x, so the window starting at
    `origin` starts at 1 - origin - len(cells).  The mirror is an involution.
    """
    swap = (*range(p.n, 0, -1), p.n)
    return State._trusted(tuple([swap[x] for x in reversed(p.cells)]), p.n, 1 - p.origin - len(p.cells))


def evolve_inverse(p, l, steps=1):
    """Undo T_l (T itself when l is None, at capacity max(1, #letters)).

    T_l^-1 = M T_l M for the `mirror` M, so (T_l^-1)^k = M T_l^k M: the run
    mirrors once at each end, not at every step.
    """
    _check_run(l, steps)
    m = mirror(p)
    cells = m.cells
    for cells in _passes(cells, p.n, l, steps):
        pass
    # the mirror reads only the order and number of the cells, so a list will do
    return mirror(State._trusted(cells, p.n, m.origin))


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
