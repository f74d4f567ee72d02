"""The combinatorial R-matrix on pairs of crystal elements.

The map B_l (x) B_l' -> B_l' (x) B_l and its energy value H come from one
pairing of the letters of the two columns, stated for l >= l': each letter
of the right column, largest first, takes the largest free letter of the
left column strictly below it, and a line that finds none wraps around to
the largest free letter.  H is minus the number of lines that did not
wrap.  The rule compares letters and never reads the alphabet size, so the
order l < l' follows by duality: with dual(w) the letters of w negated in
reverse order, R(b (x) b') = (dual c2, dual c1) with the same H, where
((c1, c2), H) = R(dual b' (x) dual b).  The single-letter exchange of the
carrier is a view of the general map.  An independent oracle recomputes
image and H from the crystal graph alone, by propagating images and H
steps along e_i/f_i edges from the all-vacuum anchor.  Affinized elements
z^d b carry an integer exponent d that the R-matrix shifts by +-H.
"""

import math
from bisect import bisect_left
from collections import deque
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


class Pairing(NamedTuple):
    """Result of connecting every right-column letter to a left-column letter.

    pairs holds (right letter, left letter, winding flag) in the order the
    right letters were processed; unpaired holds the leftover left letters.
    """

    pairs: tuple
    unpaired: tuple

    @property
    def winding_count(self):
        return sum(1 for _, _, w in self.pairs if w)


def _pair(b, bp, order=None):
    """The pairing loop: (right letter, left letter, wound) triples and the free left letters.

    Needs len(b) >= len(bp).  The right letters are taken in `order`, a
    sequence of indices into bp, or largest first when it is None.
    """
    free = list(b)
    pairs = []
    for v in reversed(bp) if order is None else [bp[k] for k in order]:
        j = bisect_left(free, v) - 1
        if j >= 0:
            pairs.append((v, free.pop(j), False))
        else:
            pairs.append((v, free.pop(), True))
    return pairs, free


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
    if order is not None:
        order = list(order)
        if sorted(order) != list(range(len(bp))):
            raise ValueError(f"order must be a permutation of 0..{len(bp) - 1}, got {order!r}")
    pairs, free = _pair(b, bp, order)
    return Pairing(tuple(pairs), tuple(free))


def _dual(w):
    """The dual column: the letters negated, in reverse order so they stay sorted."""
    return tuple([-x for x in reversed(w)])


def iso_with_energy(b, bp, n=None):
    """Image pair and H value of b (x) bp, for any pair of lengths.

    n is accepted for symmetry with the crystal functions and is unused: the
    pairing compares letters only.
    """
    if len(b) < len(bp):
        (c1, c2), h = iso_with_energy(_dual(bp), _dual(b))
        return (_dual(c2), _dual(c1)), h
    pairs, free = _pair(b, bp)
    paired = []
    h = 0
    for _, u, wound in pairs:
        paired.append(u)
        if not wound:
            h -= 1
    paired.sort()
    return (tuple(paired), tuple(sorted(bp + tuple(free)))), h


def iso(b, bp, n=None):
    """The isomorphism B_l (x) B_l' -> B_l' (x) B_l."""
    return iso_with_energy(b, bp, n)[0]


def energy(b, bp, n=None):
    """The energy H(b (x) bp), normalized to 0 on all-vacuum pairs."""
    return iso_with_energy(b, bp, n)[1]


def iso_single(b, v):
    """Exchange a single letter v with an element b: a view of iso_with_energy(b, (v,)).

    Returns (letter out, new element, h).  If b has a letter below v, the
    largest such letter is emitted and replaced by v (h = -1); otherwise the
    largest letter of b is emitted and v joins at the bottom (h = 0).
    """
    ((w,), c), h = iso_with_energy(b, (v,))
    return w, c, h


def apply_r(x, y, n=None):
    """The R-matrix on affinized elements: swap through iso, shift exponents by +-H."""
    (c1, c2), h = iso_with_energy(x.b, y.b, n)
    return Affine(y.d + h, c1), Affine(x.d - h, c2)


class YangBaxterReport(NamedTuple):
    ok: bool
    cases: int
    counterexample: tuple = None


def yang_baxter_check(l1, l2, l3, n):
    """Exhaustively compare (R x 1)(1 x R)(R x 1) with (1 x R)(R x 1)(1 x R).

    Runs over every basis triple of B_l1 (x) B_l2 (x) B_l3 with zero
    exponents; exponents are part of the comparison.  Each distinct pair of
    elements is exchanged once and its image reused.  Reports the first
    counterexample on failure.
    """
    images = {}

    def r(x, y):
        key = (x.b, y.b)
        got = images.get(key)
        if got is None:
            got = images[key] = iso_with_energy(x.b, y.b, n)
        (c1, c2), h = got
        return Affine(y.d + h, c1), Affine(x.d - h, c2)

    def r12(t):
        a, b = r(t[0], t[1])
        return (a, b, t[2])

    def r23(t):
        a, b = r(t[1], t[2])
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
