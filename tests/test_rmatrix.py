import collections
import itertools
import math
import random
import re
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball import crystal, rmatrix, tensor
from boxball.rmatrix import (
    Affine,
    apply_r,
    format_affine,
    iso_oracle,
    iso_single,
    iso_with_energy,
    oracle_table,
    pair,
    yang_baxter_check,
)
from helpers import broken_r, bytecode_count, dual, pair_in_order, reference_yang_baxter


def iso(b, bp, n=None):
    """The isomorphism B_l (x) B_l' -> B_l' (x) B_l."""
    return iso_with_energy(b, bp, n)[0]


def energy(b, bp, n=None):
    """The energy H(b (x) bp), normalized to 0 on all-vacuum pairs."""
    return iso_with_energy(b, bp, n)[1]


def winding_count(p):
    """The number of lines of a Pairing that wrap around."""
    return sum(1 for _, _, w in p.pairs if w)


def test_pairing_examples():
    p = pair((1, 1, 2, 3), (2, 3))
    assert sorted(p.pairs) == [(2, 1, False), (3, 2, False)]
    assert p.unpaired == (1, 3)
    assert winding_count(p) == 0

    p = pair((2, 3, 4, 4), (1, 2))
    assert sorted(x for x, *_ in p.pairs) == [1, 2]
    assert all(w for *_, w in p.pairs)
    assert all(left == 4 for _, left, _ in p.pairs)
    assert p.unpaired == (2, 3)

    p = pair((4, 4, 4), (4, 4))
    assert winding_count(p) == 2
    assert p.unpaired == (4,)


def test_pairing_matches_reference_loop():
    # pair_in_order taking the right letters largest first is the loop that
    # once built the triples, wound flags included; pair derives the flags
    for n in (2, 3, 4, 5):
        for l1 in (1, 2, 3, 4):
            for l2 in range(1, l1 + 1):
                for b in crystal.elements(l1, n):
                    for bp in crystal.elements(l2, n):
                        assert pair(b, bp) == pair_in_order(b, bp, range(l2 - 1, -1, -1))


def test_pairing_requires_left_at_least_as_long():
    with pytest.raises(ValueError):
        pair((1, 2), (1, 2, 3))


def test_pairing_summary_is_order_independent():
    rng = random.Random(5)
    for _ in range(250):
        n = rng.randint(2, 4)
        l1 = rng.randint(1, 5)
        l2 = rng.randint(1, l1)
        b = tuple(sorted(rng.randint(1, n) for _ in range(l1)))
        bp = tuple(sorted(rng.randint(1, n) for _ in range(l2)))
        base = pair(b, bp)
        # pair takes the right letters largest first
        assert pair_in_order(b, bp, range(l2 - 1, -1, -1)) == base
        summary = (winding_count(base), tuple(sorted(x for _, x, _ in base.pairs)), base.unpaired)
        for _ in range(4):
            order = list(range(l2))
            rng.shuffle(order)
            q = pair_in_order(b, bp, order)
            assert (winding_count(q), tuple(sorted(x for _, x, _ in q.pairs)), q.unpaired) == summary
        # iso_with_energy runs the same pairing as its own loop
        image = (summary[1], tuple(sorted(bp + base.unpaired)))
        assert iso_with_energy(b, bp) == (image, -(len(base.pairs) - winding_count(base)))


def test_iso_and_energy_examples():
    assert iso_with_energy((1, 1, 2, 3), (2, 3)) == (((1, 2), (1, 2, 3, 3)), -2)
    assert iso_with_energy((1, 1, 2, 3), (1, 2)) == (((1, 3), (1, 1, 2, 2)), -1)
    assert iso_with_energy((2, 3, 4, 4), (1, 2)) == (((4, 4), (1, 2, 2, 3)), 0)
    assert iso((4, 4, 4), (4, 4)) == ((4, 4), (4, 4, 4))
    assert energy((4, 4, 4), (4, 4)) == 0


def test_iso_preserves_letter_multiset():
    for n in (2, 3):
        for b in crystal.elements(3, n):
            for bp in crystal.elements(2, n):
                c1, c2 = iso(b, bp, n)
                assert sorted(b + bp) == sorted(c1 + c2)
                assert -min(3, 2) <= energy(b, bp, n) <= 0


def test_iso_involution_and_energy_symmetry():
    n = 4
    for l1, l2 in [(3, 2), (2, 3), (3, 1), (1, 3), (2, 2)]:
        for b in crystal.elements(l1, n):
            for bp in crystal.elements(l2, n):
                c1, c2 = iso(b, bp, n)
                assert len(c1) == l2 and len(c2) == l1
                assert iso(c1, c2, n) == (b, bp)
                assert energy(c1, c2, n) == energy(b, bp, n)


def test_iso_needs_n_only_when_left_shorter():
    assert iso((1, 2), (1,)) == ((2,), (1, 1))
    # the mirrored rule for a shorter left factor needs no alphabet size either
    assert iso_with_energy((1,), (1, 2)) == (((1, 1), (2,)), -1)


def test_iso_commutes_with_tensor_operators():
    for n in (2, 3, 4):
        for l1, l2 in itertools.product((1, 2, 3), repeat=2):
            for b in crystal.elements(l1, n):
                for bp in crystal.elements(l2, n):
                    image = iso(b, bp, n)
                    for i in range(n):
                        for op in (tensor.tensor_e, tensor.tensor_f):
                            moved = op((b, bp), i, n)
                            image_moved = op(image, i, n)
                            if moved is None:
                                assert image_moved is None
                            else:
                                assert image_moved == iso(moved[0], moved[1], n)


def test_energy_axiom_on_zero_colored_edges():
    for n in (2, 3):
        for l1, l2 in itertools.product((1, 2, 3), repeat=2):
            for b in crystal.elements(l1, n):
                for bp in crystal.elements(l2, n):
                    moved = tensor.tensor_e((b, bp), 0, n)
                    if moved is None:
                        continue
                    c1, c2 = iso(b, bp, n)
                    left_in = crystal.phi(b, 0, n) >= crystal.epsilon(bp, 0, n)
                    left_img = crystal.phi(c1, 0, n) >= crystal.epsilon(c2, 0, n)
                    step = 1 if (left_in and left_img) else -1 if not (left_in or left_img) else 0
                    assert energy(moved[0], moved[1], n) == energy(b, bp, n) + step


def test_single_letter_exchange():
    assert iso_single((1, 1, 2), 2) == (1, (1, 2, 2), -1)
    assert iso_single((3, 3), 1) == (3, (1, 3), 0)
    assert iso_single((4, 4), 4) == (4, (4, 4), 0)
    # agrees with the general map
    for n in (3, 4):
        for b in crystal.elements(3, n):
            for v in range(1, n + 1):
                out, new, h = iso_single(b, v)
                assert iso_with_energy(b, (v,)) == (((out,), new), h)


def test_single_letter_exchange_inverse():
    # the inverse exchange v (x) b -> b' (x) w is the general map with the letter on the left
    assert iso_with_energy((1,), (1, 2, 2)) == (((1, 1, 2), (2,)), -1)
    assert iso_with_energy((4,), (4, 4, 4)) == (((4, 4, 4), (4,)), 0)
    n = 4
    for b in crystal.elements(3, n):
        for v in range(1, n + 1):
            out, new, h = iso_single(b, v)
            assert iso_with_energy((out,), new) == ((b, (v,)), h)
            (nb, (w,)), _ = iso_with_energy((v,), b)
            assert iso_single(nb, w)[:2] == (v, b)


def test_apply_r_examples():
    left, right = apply_r(Affine(0, (1, 1, 2, 3)), Affine(0, (2, 3)))
    assert left == Affine(-2, (1, 2))
    assert right == Affine(2, (1, 2, 3, 3))
    left, right = apply_r(Affine(0, (4, 4, 4)), Affine(0, (4, 4)))
    assert (left, right) == (Affine(0, (4, 4)), Affine(0, (4, 4, 4)))


def test_apply_r_round_trip_and_exponent_sum():
    n = 3
    for b in crystal.elements(2, n):
        for bp in crystal.elements(3, n):
            x, y = Affine(0, b), Affine(0, bp)
            u, v = apply_r(x, y, n)
            assert u.d + v.d == 0
            assert apply_r(u, v, n) == (x, y)


@pytest.mark.parametrize("n,sizes", [(3, (2, 1, 1)), (2, (1, 1, 1)), (4, (3, 2, 1)), (3, (2, 3, 2))])
def test_yang_baxter_small(n, sizes):
    report = yang_baxter_check(*sizes, n)
    assert report.ok, report.counterexample
    assert report.cases > 0


def test_yang_baxter_exchanges_each_pair_once(monkeypatch):
    n = 3
    calls = []

    def counted(b, bp, n=None):
        calls.append((b, bp, n))
        return iso_with_energy(b, bp, n)

    monkeypatch.setattr(rmatrix, "iso_with_energy", counted)
    # the last three repeat a size pair among the three positions
    for sizes in [(2, 3, 2), (2, 2, 2), (1, 2, 2), (2, 2, 1)]:
        calls.clear()
        report = yang_baxter_check(*sizes, n)
        size = {l: math.comb(l + n - 1, n - 1) for l in sizes}
        assert report.ok and report.cases == math.prod(size[l] for l in sizes)
        assert calls and len(set(calls)) == len(calls)
        # one exchange per pair of each distinct size pair, as `_ybe_cost` prices them
        l1, l2, l3 = sizes
        exchanges = collections.Counter((len(b), len(bp)) for b, bp, _ in calls)
        assert exchanges == {(a, b): size[a] * size[b] for a, b in {(l1, l2), (l2, l3), (l1, l3)}}
        cases, work = rmatrix._ybe_cost(sizes, n)
        priced = sum(k * (3 + (a + b) // 3) for (a, b), k in exchanges.items())
        assert (cases, work) == (report.cases, cases + priced + 4 * sum(size[l] * l for l in size))


@pytest.mark.parametrize(
    "sizes, n, broken",
    [
        ((1, 1, 1), 2, False),
        ((2, 1, 1), 3, False),
        ((1, 2, 3), 3, False),
        ((3, 3, 3), 3, False),
        ((3, 1, 3), 4, False),
        ((2, 1, 1), 2, True),
        ((2, 1, 1), 3, True),
        ((1, 2, 3), 3, True),
        ((2, 3, 2), 3, True),
        ((3, 1, 3), 4, True),
        ((1, 2, 1), 2, True),
        ((2, 2, 1), 3, True),
    ],
)
def test_yang_baxter_matches_the_triple_walk(monkeypatch, sizes, n, broken):
    # the case count of a pass is the product of the sizes, and of a failure
    # the position of the failing triple: both as a walk that counts them
    if broken:
        monkeypatch.setattr(rmatrix, "iso_with_energy", broken_r)
    report = yang_baxter_check(*sizes, n)
    assert report == reference_yang_baxter(*sizes, n)
    assert report.ok is not broken


def test_yang_baxter_reports_a_counterexample(monkeypatch):
    monkeypatch.setattr(rmatrix, "iso_with_energy", broken_r)
    report = yang_baxter_check(2, 1, 1, 2)
    assert not report.ok and report.cases == 3
    start, lhs, rhs = report.counterexample
    assert start == (Affine(0, (1, 1)), Affine(0, (2,)), Affine(0, (1,)))
    assert lhs != rhs
    # a plain (d, b) tuple compares equal to an Affine, so check the type
    assert all(type(x) is Affine for side in report.counterexample for x in side)


@pytest.mark.parametrize(
    "sizes, n, message",
    [
        ((0, 1), 2, "size must be an integer >= 1, got 0"),
        ((1, -1), 3, "size must be an integer >= 1, got -1"),
        ((1, True), 2, "size must be an integer >= 1, got True"),
        ((1.0, 1), 2, "size must be an integer >= 1, got 1.0"),
        ((1, 1), 1, "alphabet size must be an integer >= 2, got 1"),
        ((1, 1), True, "alphabet size must be an integer >= 2, got True"),
        ((1, 1), "4", "alphabet size must be an integer >= 2, got '4'"),
    ],
    ids=["zero", "negative", "bool-size", "float-size", "n-1", "bool-n", "str-n"],
)
def test_yang_baxter_and_oracle_refuse_bad_sizes(sizes, n, message):
    # a size 0 is the empty word, over which every equation holds; a bool
    # would otherwise reach the cached oracle entry of the int it equals
    oracle_table(1, 1, 2)
    for call in (lambda: yang_baxter_check(*sizes, 1, n), lambda: yang_baxter_check(1, *sizes, n), lambda: oracle_table(*sizes, n)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_yang_baxter_memory_does_not_grow_with_element_length():
    # the tables hold positions, not elements: the peak here is 0.4 MB, and
    # a table holding one pair of image tuples per pair would take 6.8 MB
    tracemalloc.start()
    try:
        report = yang_baxter_check(1, 60, 60, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.cases == 2 * 61 * 61
    assert peak < 1_500_000


def test_oracle_examples():
    assert iso_oracle((1, 1, 2, 3), (1, 2), 4) == (((1, 3), (1, 1, 2, 2)), -1)
    assert iso_oracle((4, 4, 4), (4, 4), 4) == (((4, 4), (4, 4, 4)), 0)


def test_oracle_matches_pairing():
    # both length orders, so the mirrored rule (left factor shorter) too
    sizes = [(n, l1, l2) for n in (2, 3, 4, 5) for l1, l2 in itertools.product((1, 2, 3, 4), repeat=2)]
    sizes += [(6, l1, l2) for l1, l2 in itertools.product(range(1, 6), repeat=2) if l1 + l2 <= 6]
    for n, l1, l2 in sizes:
        for (b, bp), expected in oracle_table(l1, l2, n).items():
            assert iso_with_energy(b, bp, n) == expected


@pytest.mark.parametrize("l1, l2, n", [(5, 2, 4), (3, 3, 5), (2, 2, 7)])
def test_e_edges_reach_every_pair(l1, l2, n):
    # the oracle walks e_i edges only: from any pair they reach all of B_l1 (x) B_l2
    rng = random.Random(20261020)
    everything = set(itertools.product(crystal.elements(l1, n), crystal.elements(l2, n)))
    for start in (((n,) * l1, (n,) * l2), rng.choice(sorted(everything))):
        reached = {start}
        queue = [start]
        for t in queue:
            for i in range(n):
                y = tensor.tensor_e(t, i, n)
                if y is not None and y not in reached:
                    reached.add(y)
                    queue.append(y)
        assert reached == everything


def test_oracle_reads_only_the_crystal_graph(monkeypatch):
    sizes = [(2, 3, 3), (3, 2, 4)]
    expected = {size: dict(oracle_table(*size)) for size in sizes}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the pairing rule")

    monkeypatch.setattr(rmatrix, "_pair", refuse)
    monkeypatch.setattr(rmatrix, "iso_with_energy", refuse)
    oracle_table.cache_clear()
    try:
        for size in sizes:
            assert oracle_table(*size) == expected[size]
    finally:
        oracle_table.cache_clear()


@pytest.mark.parametrize(
    "rule, message",
    [
        # e_i acts on the left factor whenever it has a minus: on ((1, 2), (2,))
        # e_1 acts on the left factor, but not on its image ((1,), (2, 2))
        (lambda counts: (0 if counts[0][0] else None, None), "operator path broke at ((1, 2), (2,)) color 1;"),
        # no operator acts anywhere, so the walk never leaves the all-vacuum pair
        (lambda counts: (None, None), "affine crystal graph on B_2 (x) B_1 is not connected for n=2"),
    ],
)
def test_oracle_reports_a_broken_graph(monkeypatch, rule, message):
    monkeypatch.setattr(tensor, "targets", rule)
    oracle_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=re.escape(message)):
            oracle_table(2, 1, 2)
    finally:
        oracle_table.cache_clear()


def test_local_axioms_at_large_sizes():
    # B_l (x) B_l' is connected as an affine crystal, so these axioms fix R
    # and H; the checks need only the signature rule, never the pairing rule
    rng = random.Random(17)
    word = lambda l, n: tuple(sorted(rng.randint(1, n) for _ in range(l)))
    for _ in range(2000):
        n = rng.randint(2, 12)
        l1, l2 = rng.randint(1, 30), rng.randint(1, 30)
        for k in range(1, n + 1):
            assert iso_with_energy((k,) * l1, (k,) * l2) == (((k,) * l2, (k,) * l1), 0)
        x = (word(l1, n), word(l2, n))
        image, h = iso_with_energy(*x)
        for i in range(n):
            for op, sign in ((tensor.tensor_e, 1), (tensor.tensor_f, -1)):
                y = op(x, i, n)
                image_y = op(image, i, n)
                if y is None:
                    assert image_y is None
                    continue
                image_moved, h_y = iso_with_energy(*y)
                assert image_y == image_moved
                if i:
                    assert h_y == h
                    continue
                # e_0 steps H by +1 when it acts on the left factor of both the
                # pair and its image, by -1 on the right factor of both; f_0
                # undoes the e_0 edge back, which acts on the same factors
                left, left_image = y[0] != x[0], image_y[0] != image[0]
                step = (1 if left else -1) if left == left_image else 0
                assert h_y == h + sign * step


@st.composite
def short_left_pairs(draw):
    n = draw(st.integers(2, 5))
    l1 = draw(st.integers(1, 3))
    l2 = draw(st.integers(l1 + 1, 4))
    word = lambda l: tuple(sorted(draw(st.lists(st.integers(1, n), min_size=l, max_size=l))))
    return word(l1), word(l2), n


@settings(max_examples=300, deadline=None)
@given(short_left_pairs())
def test_mirrored_rule_matches_oracle(case):
    # for len(b) < len(bp): the mirrored pairing, the oracle, and the omega
    # form R(b (x) bp) = (omega c2, omega c1) with ((c1, c2), h) = R(omega bp (x) omega b)
    b, bp, n = case
    omega = lambda w: tuple(sorted(n + 1 - x for x in w))
    (c1, c2), h = iso_with_energy(omega(bp), omega(b), n)
    assert iso_with_energy(b, bp, n) == iso_oracle(b, bp, n) == ((omega(c2), omega(c1)), h)


def mirrored_reference(b, bp):
    """The mirrored pairing loop that once served len(b) < len(bp) directly.

    Each letter of b, smallest first, takes the smallest free letter of bp
    strictly above it, or wraps to the smallest free letter when there is
    none; b and the unpaired letters of bp form the new left factor.
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


@st.composite
def element_pairs(draw):
    n = draw(st.integers(2, 12))
    word = lambda: tuple(sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=8))))
    return word(), word(), n


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_duality_matches_mirrored_reference(case):
    # beyond the oracle's reach: l, l' up to 8 and n up to 12
    b, bp, n = case
    (c1, c2), h = iso_with_energy(b, bp, n)
    if len(b) < len(bp):
        assert ((c1, c2), h) == mirrored_reference(b, bp)
    assert (len(c1), len(c2)) == (len(bp), len(b))
    assert iso_with_energy(c1, c2, n) == ((b, bp), h)
    assert sorted(b + bp) == sorted(c1 + c2)
    assert -min(len(b), len(bp)) <= h <= 0


@st.composite
def pairs_in_either_order(draw):
    n = draw(st.integers(2, 12))
    word = lambda: tuple(sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=40))))
    return word(), word()


@settings(max_examples=300, deadline=None)
@given(pairs_in_either_order())
def test_duality_ties_the_two_orders(case):
    """R(b (x) b') = (dual c2, dual c1) with the same H, where ((c1, c2), H) = R(dual b' (x) dual b).

    The library states the pairing for each order of the lengths in one
    loop; this identity, checked here and not on each call, ties a pair in
    one order to its dual in the other (l, l' up to 40, n up to 12).
    """
    b, bp = case
    (c1, c2), h = iso_with_energy(dual(bp), dual(b))
    assert iso_with_energy(b, bp) == ((dual(c2), dual(c1)), h)


def length_orders(l):
    """Seeded B_l (x) B_2l and B_2l (x) B_l pairs at n = 4."""
    rng = random.Random(l)
    word = lambda k: tuple(sorted(rng.randint(1, 4) for _ in range(k)))
    return (word(l), word(2 * l)), (word(2 * l), word(l))


def test_pairing_cost_is_linear_in_length():
    """Pins iso_with_energy to O(l) bytecode instructions in both length orders.

    Doubling l on B_l (x) B_2l and on B_2l (x) B_l, for l = 10, 20, 40, 80,
    at most multiplies the executed instruction count by 2.2.
    """
    counts = [[bytecode_count(iso_with_energy, *case) for case in length_orders(l)] for l in (10, 20, 40, 80)]
    for small, big in zip(counts, counts[1:]):
        assert all(y <= 2.2 * x for x, y in zip(small, big)), counts


def test_short_left_costs_about_its_mirror():
    """Pins the short-left order to the long-left order's cost: no run-time duality round trip.

    A pair b (x) b' with l < l' executes at most 1.25 times the bytecode
    instructions of its mirror dual(b') (x) dual(b), at l = 10 and l = 80.
    """
    for l in (10, 80):
        (b, bp), _ = length_orders(l)
        short, mirrored = bytecode_count(iso_with_energy, b, bp), bytecode_count(iso_with_energy, dual(bp), dual(b))
        assert short <= 1.25 * mirrored, (l, short, mirrored)


def test_format_affine():
    assert format_affine(Affine(-8, (3,))) == "z^{-8}(3)"
    assert format_affine(Affine(0, (2, 3, 3))) == "z^{0}(2,3,3)"
