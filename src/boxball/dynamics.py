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
pass costs O(n) per cell whatever l is.  A pass of T_l^-1 threads the
same carrier right to left through the inverse exchange
B_1 (x) B_l -> B_l (x) B_1 and drains it on the left.  Its rule is that of
T_l with the order of the letters 1..n-1 reversed, because T_l^-1 is T_l
conjugated by the mirror, which reflects a state about position 0 and
swaps each letter x < n with n - x.  So one kernel, `_sweep`, serves both
directions and `energy`: for the inverse it reverses only its order of
cells and the direction of its scans over the letters.  It runs two
loops over one iterator of the cells: while the carrier is empty, a cell
costs one emitted vacuum and a test for a letter to take; while it holds
a letter, the full exchange runs, until its load drops back to 0.  Most
cells of a sparse state are vacuum met by an empty carrier, so they never
pay for the exchange.

`states` streams the state after each pass of a run, either way,
unchecked, counting T's capacity once per run and keeping only the
current cells; `carrier_pass`, the CLI and `run_scattering` are views of
it, and `h_values` reads a pass's h off its two states.  `evolve` and
`evolve_inverse` are the last states of the forward and the inverse
stream.
"""

from operator import gt
from typing import NamedTuple

from .crystal import _check_int


def _integer(text):
    """The value of an optional '-' then ASCII digits, else None.

    int() alone also reads non-ASCII digits, '_' and '+', which the text
    formats refuse.
    """
    digits = text.removeprefix("-")
    return int(text) if digits.isascii() and digits.isdigit() else None


class State(NamedTuple("_StateFields", [("cells", tuple), ("n", int), ("origin", int)])):
    """Cells of a box-ball configuration with an absolute origin offset.

    Cells are stored as a tuple; positions are counted from ``origin`` so
    evolution (which may extend the window) never renumbers existing cells.
    Text form uses '.' for the vacuum letter and digits for the rest, one
    character per cell for n <= 9 and comma-separated cells otherwise, with
    an optional "@k " prefix carrying a nonzero origin.

    A state is the named tuple (cells, n, origin).  Construction,
    ``from_text``, ``_replace``, unpickling at any protocol and copying check
    every letter, ``from_text`` once per cell as it reads it; the states the
    library derives from a checked one are not re-checked.
    """

    __slots__ = ()

    def __new__(cls, cells, n, origin=0):
        _check_int("alphabet size", n, 2)
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
        body = ("," if self.n > 9 else "").join("." if x == self.n else str(x) for x in self.cells)
        # an empty window keeps its prefix, so its row is never blank
        if self.origin or not body:
            return f"@{self.origin} {body}"
        return body

    @classmethod
    def from_text(cls, text, n):
        _check_int("alphabet size", n, 2)
        s = text.strip()
        origin = 0
        if s.startswith("@"):
            head, _, rest = s.partition(" ")
            origin = _integer(head[1:])
            if origin is None:
                raise ValueError(f"bad origin prefix {head!r}")
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
        return cls._trusted(tuple(cells), n, origin)


class CarrierTrace(NamedTuple):
    """One carrier sweep: transformed cells and local h values."""

    out_state: State
    h_values: tuple


def _check_run(capacity, steps, name="steps"):
    """Check a run's capacity (None for T) and step count before any pass runs."""
    if capacity is not None:
        _check_int("carrier capacity", capacity, 1)
    _check_int(name, steps, 0)


def _sweep(cells, n, l, inverse=False):
    """Thread a capacity-l carrier through `cells`, a pass of T_l, or of T_l^-1 with `inverse`.

    Returns all the letters left to right, drained ones included.  Read in
    the pass's own order of cells, and with the letters 1..n-1 in reverse
    order for the inverse (T_l^-1 = M T_l M), a cell v meets the carrier as
    follows: an empty carrier takes a letter; a letter v swaps for the
    largest held letter below v, or with none below joins, a vacuum leaving
    while the carrier is below capacity; in every other case, a vacuum cell
    or a letter joining a full carrier, the largest held letter leaves.  A
    vacuum cell never joins, so the drain over vacuum cells added after the
    last cell emits the held letters largest first, one per cell.

    The empty-carrier loop emits the vacuum for each cell and hands the
    first letter it meets to the loaded-carrier loop, which applies the
    rules above and returns to it when a vacuum cell takes the last held
    letter.  Either loop may exhaust the cells; the drain follows.
    """
    # in the pass's order of the letters, d steps from v towards the letters
    # below it, top is the largest letter, and held[stop] = 1 ends the scan
    # for a held letter below v
    d, stop, top = (-1, n, 1) if inverse else (1, 0, n - 1)
    held = [0] * (n + 1)  # held[x] counts the letter x in 1..n-1
    held[stop] = 1
    out = []
    emit = out.append
    cells = iter(reversed(cells) if inverse else cells)
    for v in cells:
        emit(n)
        if v == n:
            continue
        held[v] = load = 1
        for v in cells:
            if v == n:
                load -= 1
            else:
                x = v - d
                while not held[x]:
                    x -= d
                held[v] += 1
                if x != stop:
                    held[x] -= 1
                    emit(x)
                    continue
                if load < l:
                    load += 1
                    emit(n)
                    continue
            # a vacuum cell, or a letter that found a full carrier with nothing
            # held below it: the largest held letter leaves
            x = top
            while not held[x]:
                x -= d
            held[x] -= 1
            emit(x)
            if not load:
                break
    for x in range(top, stop, -d):
        out += [x] * held[x]
    if inverse:
        out.reverse()
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
    # states reads None as T, which a single pass of T_l must refuse
    _check_int("carrier capacity", l, 1)
    (q,) = states(p, l)
    return CarrierTrace(q, h_values(p, q))


def energy(p, l):
    """The conserved quantity E_l: minus the sum of `h_values`, counted without building them."""
    _check_int("carrier capacity", l, 1)
    out = _sweep(p.cells, p.n, l)
    return len(out) - len(p.cells) + sum(map(gt, p.cells, out))


def states(p, capacity=None, steps=1, *, inverse=False):
    """The states after passes 1, 2, ..., steps of T_capacity, or of its inverse, as a lazy iterator.

    capacity None means the full evolution T: one carrier pass per step at
    capacity max(1, #letters), where T_l has saturated (T_l = T for every
    l >= #letters), counted once because every pass conserves the letters.
    With `inverse` each pass is one of T_capacity^-1, right to left, and
    the origin moves left by the cells its drain prepends.  The capacity
    and step count are checked on the call, before the first pass.  Each
    state is built from the carrier's output without re-checking its
    letters.
    """
    _check_run(capacity, steps)
    n = p.n
    l = max(1, p.nonvacuum_count) if capacity is None else capacity

    def run(cells, origin):
        for _ in range(steps):
            out = _sweep(cells, n, l, inverse)
            if inverse:
                origin -= len(out) - len(cells)
            cells = tuple(out)
            yield State._trusted(cells, n, origin)

    return run(p.cells, p.origin)


def evolve(p, capacity=None, steps=1):
    """The state after `steps` applications of T_capacity (T itself when None): the last of `states`.

    Only the current state is kept, so memory does not grow with `steps`.
    """
    q = p
    for q in states(p, capacity, steps):
        pass
    return q


def evolve_inverse(p, l, steps=1):
    """The state after `steps` applications of T_l^-1 (T^-1 when l is None): the last of `states` with `inverse`.

    Each pass threads the carrier right to left and drains it on the left,
    so the window grows leftward.  Only the current state is kept, as in
    `evolve`.
    """
    q = p
    for q in states(p, l, steps, inverse=True):
        pass
    return q


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
    the same E_l and N_l = 0.  That l is at most #letters + 1.  E_l is the sum
    of min(l, length) over the solitons, so once it reaches #letters the
    next value is known without a pass.
    """
    letters = p.nonvacuum_count
    e = {0: 0, 1: energy(p, 1)}
    l = 1
    while e[l] != e[l - 1]:
        l += 1
        e[l] = e[l - 1] if e[l - 1] == letters else energy(p, l)
    nvals = {k: -e[k - 1] + 2 * e[k] - e.get(k + 1, e[k]) for k in range(1, l + 1)}
    return EnergySpectrum(e, nvals)
