"""Shared fixtures: golden displays, seeded random-state builders and a broken R-matrix."""

import random

from boxball.dynamics import State
from boxball.rmatrix import iso_with_energy
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
