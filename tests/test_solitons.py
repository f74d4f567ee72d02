import re
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.dynamics import State, evolve
from boxball.rmatrix import Affine
from boxball.solitons import (
    NotSeparatedError,
    ScatteringBudgetError,
    bump_tableau,
    detect,
    format_tableau,
    label,
    predict_m_body,
    predict_two_body,
    run_scattering,
    state_with_solitons,
)
from boxball import solitons, tensor
from helpers import THREE_SOLITON_ROWS, random_content, random_separated_state, seeded

IN_LABELS = (Affine(0, (2, 3, 3)), Affine(-6, (1, 1)), Affine(-11, (2,)))
OUT_LABELS = (Affine(-8, (3,)), Affine(-4, (1, 3)), Affine(-5, (1, 2, 2)))


def test_detect_three_soliton_row():
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    sols = detect(p, 0)
    assert [(s.length, s.content, s.position) for s in sols] == [
        (3, (3, 3, 2), 0),
        (2, (1, 1), 6),
        (1, (2,), 11),
    ]


def test_detect_vacuum_and_mid_collision():
    assert detect(State.from_text(".....", 4)) == []
    with pytest.raises(NotSeparatedError):
        detect(State.from_text(THREE_SOLITON_ROWS[2], 4))  # run 2112 not weakly decreasing
    with pytest.raises(NotSeparatedError):
        detect(State.from_text(THREE_SOLITON_ROWS[3], 4))


def test_detect_census_gate():
    with pytest.raises(NotSeparatedError):
        detect(State.from_text("..12..", 4))  # ascending run
    # close pair whose runs read as two 2-solitons but whose spectrum says 3+1
    with pytest.raises(NotSeparatedError, match="census"):
        detect(State.from_text("33.22", 4))
    # a descending run is one soliton, not two glued ones
    (s,) = detect(State.from_text("..21..", 4))
    assert (s.length, s.content) == (2, (2, 1))


def test_detect_respects_origin():
    p = State.from_text("@5 ..332", 4)
    (s,) = detect(p)
    assert s.position == 7


def test_labels():
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    assert tuple(label(s) for s in detect(p, 0)) == IN_LABELS
    final = State.from_text(THREE_SOLITON_ROWS[6], 4)
    assert tuple(label(s) for s in detect(final, 6)) == OUT_LABELS
    # finite-capacity velocity: min(k, l)
    (s,) = detect(State.from_text("..332", 4), t=2)
    assert label(s, 2) == Affine(-(2 - 2 * 2), (2, 3, 3))
    (single,) = detect(State.from_text("...2", 4), t=0)
    assert label(single) == Affine(-3, (2,))


def test_predict_two_body_chain():
    a, b = predict_two_body(Affine(0, (2, 3, 3)), Affine(-6, (1, 1)))
    assert (a, b) == (Affine(-2, (3, 3)), Affine(-4, (1, 1, 2)))
    a, b = predict_two_body(Affine(-4, (1, 1, 2)), Affine(-11, (2,)))
    assert (a, b) == (Affine(-10, (1,)), Affine(-5, (1, 2, 2)))
    a, b = predict_two_body(Affine(-2, (3, 3)), Affine(-10, (1,)))
    assert (a, b) == (Affine(-8, (3,)), Affine(-4, (1, 3)))


def test_predict_two_body_requires_longer_left():
    with pytest.raises(ValueError):
        predict_two_body(Affine(0, (1,)), Affine(0, (1, 2)))
    with pytest.raises(ValueError):
        predict_two_body(Affine(0, (1, 2)), Affine(0, (1, 3)))


def test_predict_m_body():
    assert predict_m_body(IN_LABELS) == OUT_LABELS
    assert predict_m_body((Affine(-3, (1, 2)),)) == (Affine(-3, (1, 2)),)
    assert predict_m_body(IN_LABELS, order=(1, 0, 1)) == OUT_LABELS
    with pytest.raises(ValueError):
        predict_m_body((Affine(0, (1, 1)), Affine(0, (2, 2))))
    with pytest.raises(ValueError):
        predict_m_body(IN_LABELS, order=(0, 1))


def test_predict_m_body_bracketing_independence():
    rng = seeded(17)
    for _ in range(50):
        n = 4
        labels = tuple(
            Affine(-rng.randint(0, 20), tuple(sorted(random_content(rng, l, n))))
            for l in (4, 3, 1)
        )
        assert predict_m_body(labels, order=(0, 1, 0)) == predict_m_body(labels, order=(1, 0, 1))


@st.composite
def decreasing_labels(draw):
    """2..6 labels over the reduced alphabet with strictly decreasing lengths."""
    n = draw(st.integers(3, 6))
    lengths = sorted(draw(st.sets(st.integers(1, 7), min_size=2, max_size=6)), reverse=True)
    return tuple(
        Affine(draw(st.integers(-20, 20)), tuple(sorted(draw(st.lists(st.integers(1, n - 1), min_size=l, max_size=l)))))
        for l in lengths
    )


@settings(max_examples=200, deadline=None)
@given(decreasing_labels(), st.data())
def test_predict_m_body_any_reduced_word(labels, data):
    # a random reduced word of the full reversal: each swap exchanges two
    # lengths still in decreasing order
    lengths = [len(x.b) for x in labels]
    order = []
    while descents := [i for i in range(len(lengths) - 1) if lengths[i] > lengths[i + 1]]:
        i = data.draw(st.sampled_from(descents))
        lengths[i], lengths[i + 1] = lengths[i + 1], lengths[i]
        order.append(i)
    assert len(order) == len(labels) * (len(labels) - 1) // 2
    assert predict_m_body(labels, order) == predict_m_body(labels)


def test_phase_shifts_are_antisymmetric():
    rng = seeded(23)
    for _ in range(60):
        n = 4
        l1 = rng.randint(2, 4)
        l2 = rng.randint(1, l1 - 1)
        a = Affine(-rng.randint(0, 9), tuple(sorted(random_content(rng, l1, n))))
        b = Affine(-rng.randint(10, 25), tuple(sorted(random_content(rng, l2, n))))
        u, v = predict_two_body(a, b)
        assert u.d + v.d == a.d + b.d


def test_run_scattering_three_solitons():
    report = run_scattering(State.from_text(THREE_SOLITON_ROWS[0], 4))
    assert report.match
    assert report.in_labels == IN_LABELS
    assert report.out_labels_simulated == OUT_LABELS
    assert report.out_labels_predicted == OUT_LABELS
    assert report.steps == 6
    assert report.tableau_in == report.tableau_out == ((1, 1, 2, 3, 3), (2,))


def test_run_scattering_single_soliton():
    report = run_scattering(State.from_text("..332..", 4))
    assert report.match
    assert report.in_labels == report.out_labels_simulated == report.out_labels_predicted


def test_run_scattering_preconditions():
    # the full message, since predict_m_body's also says "strictly decreasing";
    # equal lengths are refused too
    for text, lengths in (("..2....33..", r"\[1, 2\]"), ("33...22....", r"\[2, 2\]")):
        with pytest.raises(ValueError, match=f"^initial soliton lengths must be strictly decreasing, got {lengths}$"):
            run_scattering(State.from_text(text, 4))
    with pytest.raises(ValueError, match="exceed"):
        run_scattering(State.from_text("332....11....", 4), rule=2)
    with pytest.raises(ScatteringBudgetError) as exc:
        run_scattering(State.from_text("332....11...2.....", 4), max_steps=2)
    assert exc.value.last_time == 2
    assert [(s.position, s.time) for s in exc.value.last_solitons] == [(6, 2), (11, 2), (14, 2)]


def test_run_scattering_checks_max_steps():
    # checked as a step count is, before any work: not a raw TypeError from
    # range, a budget error at t = 0, or True running as 1
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    for max_steps in (2.5, -1, True, "3"):
        with pytest.raises(ValueError, match=f"^max_steps must be an integer >= 0, got {max_steps!r}$"):
            run_scattering(p, None, max_steps)
    with pytest.raises(ValueError, match="^carrier capacity must be an integer >= 1, got 0$"):
        run_scattering(State.from_text("..332..", 4), 0)
    assert run_scattering(p, None, 6).steps == 6


@pytest.mark.parametrize(
    "text,rule",
    [(THREE_SOLITON_ROWS[0], None), (THREE_SOLITON_ROWS[0], 3), ("..332..", None), ("3321......211.....1....", None)],
)
def test_run_scattering_computes_census_once(text, rule, monkeypatch):
    # the census is conserved, so one spectrum suffices, and the window of
    # three states takes each time step once from a single stream of states
    calls = Counter()
    spectrum, states = solitons.spectrum, solitons.states

    def counted_spectrum(*args):
        calls["spectrum"] += 1
        return spectrum(*args)

    def counted_states(*args):
        calls["run"] += 1
        for item in states(*args):
            calls["state"] += 1
            yield item

    monkeypatch.setattr(solitons, "spectrum", counted_spectrum)
    monkeypatch.setattr(solitons, "states", counted_states)
    report = run_scattering(State.from_text(text, 4), rule)
    assert report.match
    assert calls == {"spectrum": 1, "run": 1, "state": report.steps + 2}


def test_run_scattering_under_finite_rule():
    p = state_with_solitons([(0, (3, 3, 2)), (9, (1, 1))], 4, tail=4)
    full = run_scattering(p)
    finite = run_scattering(p, rule=3)
    assert full.match and finite.match
    assert full.out_labels_predicted == finite.out_labels_predicted


def test_random_two_body_scattering():
    rng = seeded(41)
    for _ in range(40):
        n = 4
        l1 = rng.randint(2, 4)
        l2 = rng.randint(1, l1 - 1)
        p = random_separated_state(rng, (l1, l2), n)
        report = run_scattering(p)
        assert report.match, p.to_text()


@pytest.mark.parametrize("i,l,k", [(5, 1, 2), (4, 2, 1), (7, 2, 3)])
def test_highest_weight_two_body_rule(i, l, k):
    # (1^i) meeting (2^k 1^l) comes out as (1^{l+k}) and (2^k 1^{i-k})
    p = state_with_solitons([(0, (1,) * i), (2 * i, (2,) * k + (1,) * l)], 4, tail=4)
    report = run_scattering(p)
    assert report.match
    short, long_ = report.out_labels_simulated
    assert short.b == (1,) * (l + k)
    assert long_.b == (1,) * (i - k) + (2,) * k


def test_scattering_commutes_with_reduced_alphabet_operators():
    # lowering the label tensor first, or the outcome, gives the same answer
    moved = tensor.tensor_e(tuple(x.b for x in IN_LABELS), 2, 3)
    assert moved == ((2, 2, 3), (1, 1), (2,))
    p = state_with_solitons([(0, tuple(reversed(moved[0]))), (6, (1, 1)), (11, (2,))], 4, tail=4)
    report = run_scattering(p)
    assert report.match
    out_elements = tuple(x.b for x in report.out_labels_simulated)
    assert out_elements == tensor.tensor_e(tuple(x.b for x in OUT_LABELS), 2, 3)
    assert tuple(x.d for x in report.out_labels_simulated) == tuple(x.d for x in OUT_LABELS)


def test_predict_commutes_with_reduced_alphabet_operators():
    rng = seeded(53)
    for _ in range(60):
        n = 4
        labels = tuple(
            Affine(-rng.randint(0, 30), tuple(sorted(random_content(rng, l, n)))) for l in (3, 2, 1)
        )
        for i in (1, 2):
            for op in (tensor.tensor_e, tensor.tensor_f):
                moved = op(tuple(x.b for x in labels), i, n - 1)
                if moved is None:
                    continue
                relabeled = tuple(Affine(x.d, b) for x, b in zip(labels, moved))
                lhs = predict_m_body(relabeled)
                rhs_elements = op(tuple(x.b for x in predict_m_body(labels)), i, n - 1)
                rhs = tuple(Affine(x.d, b) for x, b in zip(predict_m_body(labels), rhs_elements))
                assert lhs == rhs


def test_velocity_law():
    rng = seeded(8)
    for n in (2, 3, 4):
        for l in range(1, 6):
            content = random_content(rng, l, n)
            p = state_with_solitons([(2, content)], n, tail=2)
            for k in range(1, 6):
                q = evolve(p, k, 1)
                (s,) = detect(q, 1)
                assert s.position == 2 + min(k, l)
                assert s.content == content


def test_row_insert_and_bump_tableau():
    # the state read right to left is the word 2, 1, 1, 2, 3, 3
    assert bump_tableau(State((3, 3, 2, 1, 1, 2), 4)) == ((1, 1, 2, 3, 3), (2,))
    # both reading words of the scattering display bump to the same tableau
    assert bump_tableau(State.from_text(THREE_SOLITON_ROWS[0], 4)) == ((1, 1, 2, 3, 3), (2,))
    assert bump_tableau(State.from_text(THREE_SOLITON_ROWS[6], 4)) == ((1, 1, 2, 3, 3), (2,))
    assert bump_tableau(State.from_text("....", 4)) == ()
    assert format_tableau(((1, 1, 2, 3, 3), (2,))) == "1 1 2 3 3\n2"


def reference_bump(rows, x):
    """Schensted row insertion of x into a tableau of mutable rows, in place."""
    for row in rows:
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return
        row[j], x = x, row[j]
    rows.append([x])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bump_tableau_matches_row_insertion(data):
    n = data.draw(st.integers(2, 12))
    cells = data.draw(st.lists(st.integers(1, n), max_size=30))
    rows = []
    for x in reversed(cells):
        if x != n:
            reference_bump(rows, x)
    assert bump_tableau(State(cells, n)) == tuple(tuple(r) for r in rows)


def test_tableau_is_semistandard():
    rng = seeded(77)
    for _ in range(100):
        from helpers import random_state

        rows = bump_tableau(random_state(rng))
        for row in rows:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for upper, lower in zip(rows, rows[1:]):
            assert len(lower) <= len(upper)
            assert all(a < b for a, b in zip(upper, lower))


def test_tableau_invariant_along_trajectory():
    state = State.from_text(THREE_SOLITON_ROWS[0], 4)
    expected = bump_tableau(state)
    for _ in range(6):
        state = evolve(state, None, 1)
        assert bump_tableau(state) == expected  # holds mid-collision too


def test_census_matches_construction():
    rng = seeded(67)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        lengths = [rng.randint(1, 4) for _ in range(m)]
        p = random_separated_state(rng, lengths, n)
        sols = detect(p)
        assert sorted(s.length for s in sols) == sorted(lengths)


def test_state_with_solitons_validation():
    with pytest.raises(ValueError):
        state_with_solitons([(0, (4,))], 4)
    with pytest.raises(ValueError):
        state_with_solitons([(0, (2, 1)), (1, (1,))], 4)
    assert state_with_solitons([(1, (3, 2))], 4, tail=0) == State((4, 3, 2), 4)
    assert state_with_solitons([], 4, tail=0) == State((), 4)
    # the tail is a count of vacuum cells: not negative, fractional or a bool
    for placements in ([(0, (3, 2))], []):
        for tail in (-1, 2.5, "2", None, True):
            with pytest.raises(ValueError, match=f"^tail must be an integer >= 0, got {re.escape(repr(tail))}$"):
                state_with_solitons(placements, 4, tail=tail)
