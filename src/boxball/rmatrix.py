"""The combinatorial R-matrix on pairs of crystal elements.

The map B_l (x) B_l' -> B_l' (x) B_l and its energy value H come from a
pairing of the letters of the two columns.  When l >= l' each letter of
the right column, largest first, takes the largest free letter of the left
column strictly below it; when l < l' the rule is mirrored, and each letter
of the left column, smallest first, takes the smallest free letter of the
right column strictly above it.  A line that finds no such letter wraps
around, and H is minus the number of lines that did not wrap.  An
independent oracle recomputes image and H from the crystal graph alone,
by propagating images and H steps along e_i/f_i edges from the
all-vacuum anchor.  Affinized elements z^d b carry an integer exponent d
that the R-matrix shifts by +-H.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import crystal, tensor


class Affine(NamedTuple):
    """A crystal element with a spectral exponent: z^d b."""

    d: int
    b: tuple


def format_affine(x):
    word = ",".join(str(v) for v in x.b)
    return f"z^{{{x.d}}}({word})"


@dataclass(frozen=True)
class Pairing:
    """Result of connecting every right-column letter to a left-column letter.

    pairs holds (right letter, left letter, winding flag) in the order the
    right letters were processed; unpaired holds the leftover left letters.
    """

    pairs: tuple
    unpaired: tuple

    @property
    def winding_count(self):
        return sum(1 for _, _, w in self.pairs if w)

    @property
    def unwinding_count(self):
        return sum(1 for _, _, w in self.pairs if not w)


def pair(b, bp, order=None):
    """Pair the letters of bp (right column) with letters of b (left column).

    Requires len(b) >= len(bp).  Each right letter v takes the largest still
    available left letter strictly below v; if there is none the line wraps
    around the bottom ("winding") and takes the largest available letter
    overall.  The processing order of the right letters defaults to largest
    first; the pairing summary does not depend on it (property-tested).
    """
    if len(b) < len(bp):
        raise ValueError(f"left factor must be at least as long as the right one, got {len(b)} < {len(bp)}")
    if order is None:
        order = range(len(bp) - 1, -1, -1)
    else:
        order = list(order)
        if sorted(order) != list(range(len(bp))):
            raise ValueError(f"order must be a permutation of 0..{len(bp) - 1}, got {order!r}")
    available = list(b)
    pairs = []
    for k in order:
        v = bp[k]
        j = bisect_left(available, v) - 1
        if j >= 0:
            pairs.append((v, available.pop(j), False))
        else:
            pairs.append((v, available.pop(), True))
    return Pairing(tuple(pairs), tuple(available))


def _image_direct(b, bp):
    """Image pair and H for len(b) >= len(bp): the pairing of `pair` in one loop."""
    free = list(b)
    paired = []
    h = 0
    for v in reversed(bp):
        j = bisect_left(free, v) - 1
        if j >= 0:
            paired.append(free.pop(j))
            h -= 1
        else:
            paired.append(free.pop())
    return (tuple(sorted(paired)), tuple(sorted(bp + tuple(free)))), h


def _image_mirrored(b, bp):
    """Image pair and H for len(b) < len(bp), by the mirrored pairing.

    Each letter of b, smallest first, takes the smallest free letter of bp
    strictly above it, or wraps to the smallest free letter when there is
    none.  b and the unpaired letters of bp form the new left factor.
    """
    free = list(bp)
    paired = []
    h = 0
    for v in b:
        j = bisect_right(free, v)
        if j < len(free):
            paired.append(free.pop(j))
            h -= 1
        else:
            paired.append(free.pop(0))
    return (tuple(sorted(b + tuple(free))), tuple(sorted(paired))), h


def iso_with_energy(b, bp, n=None):
    """Image pair and H value of b (x) bp, for any pair of lengths.

    n is accepted for symmetry with the crystal functions and is unused:
    neither pairing rule depends on the alphabet size.
    """
    if len(b) >= len(bp):
        return _image_direct(b, bp)
    return _image_mirrored(b, bp)


def iso(b, bp, n=None):
    """The isomorphism B_l (x) B_l' -> B_l' (x) B_l."""
    return iso_with_energy(b, bp, n)[0]


def energy(b, bp, n=None):
    """The energy H(b (x) bp), normalized to 0 on all-vacuum pairs."""
    return iso_with_energy(b, bp, n)[1]


def iso_single(b, v):
    """Exchange a single letter v with an element b, left factor at least as long.

    Returns (letter out, new element, h).  If b has a letter below v, the
    largest such letter is emitted and replaced by v (h = -1); otherwise the
    largest letter of b is emitted and v joins at the bottom (h = 0).
    """
    j = bisect_left(b, v) - 1
    if j >= 0:
        return b[j], b[:j] + (v,) + b[j + 1 :], -1
    return b[-1], (v,) + b[:-1], 0


def iso_single_inverse(v, b):
    """Inverse of iso_single: returns (new element, letter out)."""
    j = bisect_right(b, v)
    if j < len(b):
        return b[:j] + (v,) + b[j + 1 :], b[j]
    return b[1:] + (v,), b[0]


def apply_r(x, y, n=None):
    """The R-matrix on affinized elements: swap through iso, shift exponents by +-H."""
    (c1, c2), h = iso_with_energy(x.b, y.b, n)
    return Affine(y.d + h, c1), Affine(x.d - h, c2)


@dataclass(frozen=True)
class YangBaxterReport:
    ok: bool
    cases: int
    counterexample: tuple = None


def yang_baxter_check(l1, l2, l3, n):
    """Exhaustively compare (R x 1)(1 x R)(R x 1) with (1 x R)(R x 1)(1 x R).

    Runs over every basis triple of B_l1 (x) B_l2 (x) B_l3 with zero
    exponents; exponents are part of the comparison.  Reports the first
    counterexample on failure.
    """

    def r12(t):
        a, b = apply_r(t[0], t[1], n)
        return (a, b, t[2])

    def r23(t):
        a, b = apply_r(t[1], t[2], n)
        return (t[0], a, b)

    cases = 0
    for b1 in crystal.elements(l1, n):
        for b2 in crystal.elements(l2, n):
            for b3 in crystal.elements(l3, n):
                start = (Affine(0, b1), Affine(0, b2), Affine(0, b3))
                lhs = r12(r23(r12(start)))
                rhs = r23(r12(r23(start)))
                cases += 1
                if lhs != rhs:
                    return YangBaxterReport(False, cases, (start, lhs, rhs))
    return YangBaxterReport(True, cases)


def _h_step(x, image, n):
    """H increment across the e_0 edge out of x.

    +1 when e_0 acts on the left factor of both x and its image, -1 when it
    acts on the right factor of both, 0 otherwise.
    """
    left_in = crystal.phi(x[0], 0, n) >= crystal.epsilon(x[1], 0, n)
    left_img = crystal.phi(image[0], 0, n) >= crystal.epsilon(image[1], 0, n)
    if left_in and left_img:
        return 1
    if not left_in and not left_img:
        return -1
    return 0


@lru_cache(maxsize=None)
def oracle_table(l1, l2, n):
    """Image and H for all of B_l1 (x) B_l2, from the crystal graph alone.

    Breadth-first search from the all-vacuum pair: images follow the same
    e_i/f_i word applied on the swapped side, and H accumulates the color-0
    step rule along the path.  Independent of the pairing algorithm.
    """
    start = ((n,) * l1, (n,) * l2)
    known = {start: (((n,) * l2, (n,) * l1), 0)}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        image, h = known[x]
        for i in range(n):
            for op, raising in ((tensor.tensor_e, True), (tensor.tensor_f, False)):
                y = op(x, i, n)
                if y is None or y in known:
                    continue
                img_y = op(image, i, n)
                if img_y is None:
                    raise RuntimeError(f"operator path broke at {x!r} color {i}; sides not isomorphic")
                if i != 0:
                    h_y = h
                elif raising:
                    h_y = h + _h_step(x, image, n)
                else:
                    h_y = h - _h_step(y, img_y, n)
                known[y] = (img_y, h_y)
                queue.append(y)
    expected = math.comb(l1 + n - 1, n - 1) * math.comb(l2 + n - 1, n - 1)
    if len(known) != expected:
        raise RuntimeError(f"affine crystal graph on B_{l1} (x) B_{l2} is not connected for n={n}")
    return known


def iso_oracle(b, bp, n):
    """Oracle version of iso_with_energy; only sensible at small sizes."""
    return oracle_table(len(b), len(bp), n)[(b, bp)]
