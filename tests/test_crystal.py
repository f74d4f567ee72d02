import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball import crystal


def test_operator_examples_n4():
    assert crystal.apply_e((1, 1, 3, 3, 4), 2, 4) == (1, 1, 2, 3, 4)
    assert crystal.apply_f((1, 1, 3, 3, 4), 2, 4) is None
    assert crystal.apply_f((1, 1, 3, 3, 4), 0, 4) == (1, 1, 1, 3, 3)


def test_color_zero_rules():
    assert crystal.apply_e((1, 1, 3, 3, 4), 0, 4) == (1, 3, 3, 4, 4)
    # e_0 then f_0 round-trips where defined
    assert crystal.apply_f((1, 3, 3, 4, 4), 0, 4) == (1, 1, 3, 3, 4)
    assert crystal.apply_e((2, 3), 0, 4) is None
    assert crystal.apply_f((4, 4, 4), 0, 4) == (1, 4, 4)
    assert crystal.apply_f((1,) * 5, 1, 4) == (1, 1, 1, 1, 2)


def test_epsilon_phi_counts():
    assert crystal.epsilon((1, 2, 2, 3), 1, 4) == 2
    assert crystal.phi((1, 2, 2, 3), 1, 4) == 1
    assert crystal.phi((1, 1, 2), 1, 4) == 2
    assert crystal.epsilon((4, 4, 4), 1, 4) == 0
    assert crystal.phi((4,) * 3, 0, 4) == 3
    # derived: epsilon_2 of 11334 counts the 3s, and matches iterated e_2
    b = (1, 1, 3, 3, 4)
    assert crystal.epsilon(b, 2, 4) == 2
    m = 0
    cur = b
    while (cur := crystal.apply_e(cur, 2, 4)) is not None:
        m += 1
    assert m == 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_statistics_match_iteration(n, l):
    for b in crystal.elements(l, n):
        for i in range(n):
            cur, m = b, 0
            while (cur := crystal.apply_e(cur, i, n)) is not None:
                m += 1
            assert m == crystal.epsilon(b, i, n)
            cur, m = b, 0
            while (cur := crystal.apply_f(cur, i, n)) is not None:
                m += 1
            assert m == crystal.phi(b, i, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_table_matches_the_operators(n, l):
    elements, moves = crystal.table(l, n)
    assert elements == tuple(crystal.elements(l, n))
    at = lambda k: None if k is None else elements[k]
    for b, row in zip(elements, moves, strict=True):
        assert len(row) == n
        for i, (counts, e) in enumerate(row):
            assert counts == (crystal.epsilon(b, i, n), crystal.phi(b, i, n))
            assert at(e) == crystal.apply_e(b, i, n)


@pytest.mark.parametrize("n,l", [(2, 4), (3, 4), (4, 4)])
def test_e_f_inverse_and_validity(n, l):
    for b in crystal.elements(l, n):
        for i in range(n):
            fb = crystal.apply_f(b, i, n)
            if fb is not None:
                crystal.validate_element(fb, n)
                assert crystal.apply_e(fb, i, n) == b
            eb = crystal.apply_e(b, i, n)
            if eb is not None:
                crystal.validate_element(eb, n)
                assert crystal.apply_f(eb, i, n) == b


def test_letter_count_conservation():
    for b in crystal.elements(3, 4):
        for i in range(1, 4):
            fb = crystal.apply_f(b, i, 4)
            if fb is None:
                continue
            assert fb.count(i) == b.count(i) - 1
            assert fb.count(i + 1) == b.count(i + 1) + 1


def test_enumeration_is_lexicographic():
    seq = list(crystal.elements(2, 3))
    assert seq == sorted(seq)
    assert seq[0] == (1, 1) and seq[-1] == (3, 3)
    assert len(seq) == 6


def test_color_validation():
    with pytest.raises(ValueError):
        crystal.apply_e((1, 2), 4, 4)
    with pytest.raises(ValueError):
        crystal.epsilon((1, 2), -1, 4)


def test_element_validation():
    crystal.validate_element((1, 2, 2), 4)
    # a bool is not a letter, though it is an int to isinstance
    for b in ((True, 2), (1, True)):
        with pytest.raises(ValueError, match="^letter True out of range 1..4$"):
            crystal.validate_element(b, 4)
    # an element is a nonempty tuple: not a list, and not the empty word
    for b in ([1], ()):
        with pytest.raises(ValueError, match=f"^element must be a nonempty tuple of letters, got {re.escape(repr(b))}$"):
            crystal.validate_element(b, 4)


def test_parse_format():
    assert crystal.parse_element("11334", 4) == (1, 1, 3, 3, 4)
    assert crystal.format_element((1, 1, 3, 3, 4), 4) == "11334"
    assert crystal.parse_element("2,10,11", 12) == (2, 10, 11)
    assert crystal.format_element((2, 10, 11), 12) == "2,10,11"
    # for n <= 9 commas are read too, as `scatter` prints label elements
    assert crystal.parse_element("2,3,3", 4) == (2, 3, 3)
    with pytest.raises(ValueError):
        crystal.parse_element("321", 4)
    with pytest.raises(ValueError):
        crystal.parse_element("125", 4)
    with pytest.raises(ValueError):
        crystal.parse_element("", 4)
    # each field is ASCII digits, as in State.from_text; int() alone takes all three
    for text in ("١٢", "+1,2", "1_0,11"):
        with pytest.raises(ValueError, match="bad element text"):
            crystal.parse_element(text, 12)
    # above nine letters a field without commas is one letter, as format_element writes it
    assert crystal.parse_element("11", 12) == (11,)
    assert crystal.format_element((11,), 12) == "11"
    with pytest.raises(ValueError):
        crystal.parse_element("123", 12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_element_text_round_trip(data):
    n = data.draw(st.integers(2, 12))
    b = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=12))))
    assert crystal.parse_element(crystal.format_element(b, n), n) == b
