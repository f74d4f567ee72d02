import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball import crystal, rmatrix, tensor
from boxball.rmatrix import (
    Affine,
    apply_r,
    energy,
    format_affine,
    iso,
    iso_oracle,
    iso_single,
    iso_with_energy,
    oracle_table,
    pair,
    yang_baxter_check,
)
from helpers import broken_r


def test_pairing_examples():
    p = pair((1, 1, 2, 3), (2, 3))
    assert sorted(p.pairs) == [(2, 1, False), (3, 2, False)]
    assert p.unpaired == (1, 3)
    assert p.winding_count == 0

    p = pair((2, 3, 4, 4), (1, 2))
    assert sorted(x for x, *_ in p.pairs) == [1, 2]
    assert all(w for *_, w in p.pairs)
    assert all(left == 4 for _, left, _ in p.pairs)
    assert p.unpaired == (2, 3)

    p = pair((4, 4, 4), (4, 4))
    assert p.winding_count == 2
    assert p.unpaired == (4,)


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
        summary = (base.winding_count, tuple(sorted(x for _, x, _ in base.pairs)), base.unpaired)
        for _ in range(4):
            order = list(range(l2))
            rng.shuffle(order)
            q = pair(b, bp, order=order)
            assert (q.winding_count, tuple(sorted(x for _, x, _ in q.pairs)), q.unpaired) == summary
        # iso_with_energy runs the same pairing as its own loop
        image = (summary[1], tuple(sorted(bp + base.unpaired)))
        assert iso_with_energy(b, bp) == (image, -(len(base.pairs) - base.winding_count))


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
    calls = []

    def counted(b, bp, n=None):
        calls.append((b, bp, n))
        return iso_with_energy(b, bp, n)

    monkeypatch.setattr(rmatrix, "iso_with_energy", counted)
    report = yang_baxter_check(2, 3, 2, 3)
    assert report.ok and report.cases == 6 * 10 * 6
    assert calls and len(set(calls)) == len(calls)


def test_yang_baxter_reports_a_counterexample(monkeypatch):
    monkeypatch.setattr(rmatrix, "iso_with_energy", broken_r)
    report = yang_baxter_check(2, 1, 1, 2)
    assert not report.ok and report.cases == 3
    start, lhs, rhs = report.counterexample
    assert start == (Affine(0, (1, 1)), Affine(0, (2,)), Affine(0, (1,)))
    assert lhs != rhs


def test_oracle_examples():
    assert iso_oracle((1, 1, 2, 3), (1, 2), 4) == (((1, 3), (1, 1, 2, 2)), -1)
    assert iso_oracle((4, 4, 4), (4, 4), 4) == (((4, 4), (4, 4, 4)), 0)


def test_oracle_matches_pairing():
    sizes = [(n, l1, l2) for n in (2, 3, 4) for l1, l2 in itertools.product((1, 2, 3), repeat=2)]
    # the mirrored rule (left factor shorter) at a larger alphabet
    sizes += [(5, l1, l2) for l1, l2 in itertools.combinations((1, 2, 3, 4), 2)]
    for n, l1, l2 in sizes:
        for (b, bp), expected in oracle_table(l1, l2, n).items():
            assert iso_with_energy(b, bp, n) == expected


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


def test_format_affine():
    assert format_affine(Affine(-8, (3,))) == "z^{-8}(3)"
    assert format_affine(Affine(0, (2, 3, 3))) == "z^{0}(2,3,3)"
