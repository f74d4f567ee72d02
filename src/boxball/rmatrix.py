"""The combinatorial R-matrix on pairs of crystal elements.

The map B_l (x) B_l' -> B_l' (x) B_l and its energy value H come from one
winding/unwinding pairing of the letters of the two columns, stated for
each order of the lengths.  For l >= l' the letters of the left column are
free, and each letter of the right column, largest first, takes the
largest free letter strictly below it, or wraps around to the largest free
letter.  For l < l' the letters of the right column are free, and each
letter of the left column, smallest first, takes the smallest free letter
strictly above it, or wraps around to the smallest free letter.  The
taken letters form the image factor as long as the column that took them,
and the free letters with that column the other; in both orders H is
minus the number of lines that did not wrap.  The rule compares letters
and never reads the alphabet size.  The two orders are tied by duality,
which the tests check rather than each call: with dual(w) the letters of
w negated in reverse order, R(b (x) b') = (dual c2, dual c1) with the same
H, where ((c1, c2), H) = R(dual b' (x) dual b).  The single-letter exchange
of the carrier is a view of the general map.  An independent oracle
recomputes image and H from the crystal graph alone, by propagating
images along e_i edges from the all-vacuum anchor; H changes only on e_0
edges, by +1 where e_0 acts on the left factor of both the pair and its
image and by -1 where it acts on the right factor of both.  It holds each
pair and image as one integer index into the two factors' `crystal.table`s,
and reads the factor e_i acts on from two tables that it fills per call,
asking `tensor.targets` once per pair of integer codes of the two factors'
counts; on square sizes the factors share one coding and one table.  Its
cache holds, per size, two flat lists (the image index and H of each pair
index) with a position index per factor; `iso_oracle` reads them by
position, and `oracle_table` builds its dict from them on each call.
Affinized elements z^d b carry an integer exponent d that the R-matrix
shifts by +-H.
"""

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import product
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


def _pair(b, bp):
    """The pairing loop for either order of the lengths: the letters taken, the count of unwound lines and the free letters.

    The free letters are those of the longer column, b's on a tie, and the
    letters of the other column probe them: largest first for a shorter
    right column, smallest first for a shorter left one.  The i-th taken
    letter is the one the i-th probe takes.
    """
    up = len(b) < len(bp)
    # a probe takes free[k], the nearest free letter past it in the probing
    # direction; k == wrap exactly when there is none, and then pop(wrap)
    # takes the smallest free letter (up) or the largest
    free, probes, find, wrap = (list(bp), b, bisect_right, 0) if up else (list(b), reversed(bp), bisect_left, -1)
    taken = []
    unwound = 0
    for v in probes:
        k = find(free, v) - (len(free) if up else 1)
        taken.append(free.pop(k))
        unwound += k != wrap
    return taken, unwound, free


def pair(b, bp):
    """Pair the letters of bp (right column) with letters of b (left column).

    Requires len(b) >= len(bp).  Each right letter v, largest first, takes
    the largest still available left letter strictly below v; if there is
    none the line wraps around the bottom ("winding") and takes the largest
    available letter overall.  The pairing summary does not depend on the
    order the right letters are taken in (property-tested).
    """
    if len(b) < len(bp):
        raise ValueError(f"left factor must be at least as long as the right one, got {len(b)} < {len(bp)}")
    taken, _, free = _pair(b, bp)
    # a line wraps exactly when it takes a letter not below its own
    return Pairing(tuple([(v, u, u >= v) for v, u in zip(reversed(bp), taken)]), tuple(free))


def iso_with_energy(b, bp, n=None):
    """Image pair and H value of b (x) bp, for any pair of lengths.

    n is accepted for symmetry with the crystal functions and is unused: the
    pairing compares letters only.
    """
    taken, unwound, free = _pair(b, bp)
    up = len(b) < len(bp)
    free += b if up else bp
    taken.sort()
    free.sort()
    c1, c2 = (free, taken) if up else (taken, free)
    return (tuple(c1), tuple(c2)), -unwound


def iso_single(b, v):
    """Exchange a single letter v with an element b: a view of iso_with_energy(b, (v,)).

    Returns (letter out, new element, h).  If b has a letter below v, the
    largest such letter is emitted and replaced by v (h = -1); otherwise the
    largest letter of b is emitted and v joins at the bottom (h = 0).
    """
    ((w,), c), h = iso_with_energy(b, (v,))
    return w, c, h


def apply_r(x, y, n=None):
    """The R-matrix on affinized elements: swap through iso_with_energy, shift exponents by +-H."""
    (c1, c2), h = iso_with_energy(x.b, y.b, n)
    return Affine(y.d + h, c1), Affine(x.d - h, c2)


class YangBaxterReport(NamedTuple):
    ok: bool
    cases: int
    counterexample: tuple = None


def _exchange_table(left, right, at):
    """R on all of left (x) right by position: rows[p][q] = (position of c1 in right, position of c2 in left, H).

    `at` maps each element of either factor to its position in its own list.
    """
    rows = []
    for b in left:
        row = []
        for bp in right:
            (c1, c2), h = iso_with_energy(b, bp)
            row.append((at[c1], at[c2], h))
        rows.append(row)
    return rows


def _check_sizes(sizes, n):
    """Refuse an alphabet size below 2 or a factor size below 1, bools included."""
    crystal._check_int("alphabet size", n, 2)
    for l in sizes:
        crystal._check_int("size", l, 1)


# Measured under CPython 3.11.7 on a 2-CPU x86-64 VM: a case of
# `yang_baxter_check` takes about 0.15 us, and an exchange into its tables
# about 0.4 us plus at most 0.06 us per letter of the pair, in either length
# order (3.8 us on B_20 (x) B_100, 3.5 us on B_100 (x) B_20, n=2).  In units of
# one case, `_ybe_cost` counts an exchange of a + b letters as
# 3 + (a + b) // 3, and each listed letter as 4, which keeps the element
# lists under about 80 MB.
def _ybe_cost(sizes, n):
    """Cases and work of `yang_baxter_check` on these sizes, work in units of one case."""
    size = {l: math.comb(l + n - 1, n - 1) for l in sizes}
    l1, l2, l3 = sizes
    cases = math.prod(size[l] for l in sizes)
    exchanges = sum(size[a] * size[b] * (3 + (a + b) // 3) for a, b in {(l1, l2), (l2, l3), (l1, l3)})
    letters = sum(size[l] * l for l in size)
    return cases, cases + exchanges + 4 * letters


def yang_baxter_check(l1, l2, l3, n):
    """Exhaustively compare (R x 1)(1 x R)(R x 1) with (1 x R)(R x 1)(1 x R).

    Runs over every basis triple of B_l1 (x) B_l2 (x) B_l3 with zero
    exponents, in lexicographic order of positions; exponents are part of
    the comparison.  Each distinct pair of elements is exchanged once, into
    a table by position, and the triples are then walked as positions and
    exponents.  A pass counts |B_l1| * |B_l2| * |B_l3| cases, a failure the
    cases up to and including the first counterexample, which it reports.
    """
    _check_sizes((l1, l2, l3), n)
    elements = {l: tuple(crystal.elements(l, n)) for l in {l1, l2, l3}}
    # elements of different sizes differ, so one index serves every size
    at = {b: k for e in elements.values() for k, b in enumerate(e)}
    tables = {key: _exchange_table(elements[key[0]], elements[key[1]], at) for key in {(l1, l2), (l2, l3), (l1, l3)}}
    r12, r23, r13 = tables[l1, l2], tables[l2, l3], tables[l1, l3]
    e1, e2, e3 = elements[l1], elements[l2], elements[l3]
    n2, n3 = len(e2), len(e3)
    for p1 in range(len(e1)):
        for p2 in range(n2):
            # the first R12 of the left side does not depend on the third factor
            u1, u2, h12 = r12[p1][p2]
            row = r13[u2]
            for p3 in range(n3):
                v2, v3, h13 = row[p3]
                s1, s2, h23 = r23[u1][v2]
                w2, w3, g23 = r23[p2][p3]
                t1, t2, g13 = r13[p1][w2]
                q2, q3, g12 = r12[t2][w3]
                # positions in B_l3, B_l2, B_l1, then exponents
                lhs = (s1, s2, v3, h13 + h23, h12 - h23, -h12 - h13)
                rhs = (t1, q2, q3, g23 + g13, g12 - g23, -g13 - g12)
                if lhs != rhs:
                    start = (Affine(0, e1[p1]), Affine(0, e2[p2]), Affine(0, e3[p3]))
                    sides = (tuple(Affine(d, e[k]) for e, k, d in zip((e3, e2, e1), side[:3], side[3:])) for side in (lhs, rhs))
                    return YangBaxterReport(False, (p1 * n2 + p2) * n3 + p3 + 1, (start, *sides))
    return YangBaxterReport(True, len(e1) * n2 * n3)


# typed, so that a bool argument misses the int entries and meets the checks
@lru_cache(maxsize=None, typed=True)
def _oracle(l1, l2, n):
    """Image and H for all of B_l1 (x) B_l2 by position, from the crystal graph alone.

    Returns (images, energies, elements1, elements2, index1, index2).
    Breadth-first search from the all-vacuum pair along e_i edges: images
    follow the same e_i word applied on the swapped side, and H steps along
    e_0 edges by where e_0 acts: +1 on the left factor of both a pair and its
    image, -1 on the right factor of both, 0 otherwise.  The e_i edges reach
    every pair, as each has level zero: the pairs reached hold an upper part
    of every i-string, a proper upper part sums phi_i - epsilon_i to more
    than zero, and each pair sums phi_i - epsilon_i over i to zero.
    A pair of positions (p, q) in the two `crystal.table`s is the index
    p * |B_l2| + q, and images[p * |B_l2| + q] is its image (u, v) as the
    index u * |B_l1| + v; energies is indexed as images.  index1 and index2
    map each element of B_l1 and B_l2 to its position.  Each call gives
    each table's distinct (epsilon_i, phi_i) counts small integer codes and
    asks `tensor.targets` once per pair of codes, for two rectangular
    tables of the factor e_i acts on: for pairs indexed by [code in
    B_l1][code in B_l2], for images by [code in B_l2][code in B_l1].  When
    l1 == l2 the two factors share one coding and the two tables are one.
    Independent of the pairing algorithm.
    """
    _check_sizes((l1, l2), n)
    elements1, moves1 = crystal.table(l1, n)
    elements2, moves2 = crystal.table(l2, n)
    n1, n2 = len(elements1), len(elements2)
    # a move becomes (code of (epsilon_i, phi_i), position of e_i b), codes
    # numbered 0, 1, ... per table in order of appearance
    codes1 = {}
    moves1 = [[(codes1.setdefault(counts, len(codes1)), e) for counts, e in row] for row in moves1]
    if l1 == l2:
        codes2, moves2 = codes1, moves1
    else:
        codes2 = {}
        moves2 = [[(codes2.setdefault(counts, len(codes2)), e) for counts, e in row] for row in moves2]
    pair_rule = [[tensor.targets((c1, c2))[0] for c2 in codes2] for c1 in codes1]
    image_rule = pair_rule if l1 == l2 else [[tensor.targets((c2, c1))[0] for c1 in codes1] for c2 in codes2]
    # the all-vacuum elements come last in lexicographic order
    images = [None] * (n1 * n2)
    energies = [0] * (n1 * n2)
    queue = [n1 * n2 - 1]
    images[-1] = n1 * n2 - 1
    for x in queue:
        image, h = images[x], energies[x]
        p, q = divmod(x, n2)
        u, v = divmod(image, n1)
        a, b, c, d = moves1[p], moves2[q], moves2[u], moves1[v]
        for i, (code1, e1), (code2, e2) in zip(range(n), a, b):
            j = pair_rule[code1][code2]
            if j is None:
                continue
            y = e1 * n2 + q if j == 0 else x - q + e2
            if images[y] is not None:
                continue
            (code2, e2), (code1, e1) = c[i], d[i]
            k = image_rule[code2][code1]
            if k is None:
                raise RuntimeError(f"operator path broke at {(elements1[p], elements2[q])!r} color {i}; sides not isomorphic")
            images[y] = e2 * n1 + v if k == 0 else image - v + e1
            energies[y] = h + (1 - 2 * j if i == 0 and j == k else 0)
            queue.append(y)
    if len(queue) != n1 * n2:
        raise RuntimeError(f"affine crystal graph on B_{l1} (x) B_{l2} is not connected for n={n}")
    index1 = {b: k for k, b in enumerate(elements1)}
    index2 = index1 if l1 == l2 else {b: k for k, b in enumerate(elements2)}
    return images, energies, elements1, elements2, index1, index2


def oracle_table(l1, l2, n):
    """Image and H for all of B_l1 (x) B_l2 as a dict, from the crystal graph alone.

    Built on each call from what `_oracle` caches per (l1, l2, n): two flat
    lists of image indexes and H values, and a position index per factor.
    The keys come in lexicographic order of positions.  Independent of the
    pairing algorithm.
    """
    images, energies, elements1, elements2, _, _ = _oracle(l1, l2, n)
    image_pairs = list(product(elements2, elements1))
    return dict(zip(product(elements1, elements2), zip(map(image_pairs.__getitem__, images), energies)))


def iso_oracle(b, bp, n):
    """Oracle version of iso_with_energy, read by position from the cached lists of `_oracle`.

    Only sensible at small sizes; a pair outside B_l1 (x) B_l2 raises
    KeyError with the pair.
    """
    images, energies, elements1, elements2, index1, index2 = _oracle(len(b), len(bp), n)
    try:
        x = index1[b] * len(elements2) + index2[bp]
    except KeyError:
        raise KeyError((b, bp)) from None
    u, v = divmod(images[x], len(elements1))
    return (elements2[u], elements1[v]), energies[x]
