"""Acceptance suite: every criterion is exact integer combinatorics (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import itertools
import time

import pytest

from boxball import crystal, tensor
from boxball.dynamics import State, carrier_pass, energy, evolve, spectrum
from boxball.rmatrix import (
    Affine,
    iso_oracle,
    iso_with_energy,
    oracle_table,
    yang_baxter_check,
)
from boxball.solitons import (
    bump_tableau,
    detect,
    predict_m_body,
    predict_two_body,
    run_scattering,
    state_with_solitons,
)
from helpers import (
    SINGLE_SOLITON_ROWS,
    THREE_SOLITON_ROWS,
    acceptance_ensemble,
    random_separated_state,
    seeded,
)


def report(k, text):
    print(f"criterion {k:2d}: PASS - {text}")


def test_criterion_01_crystal_operators():
    assert crystal.apply_e((1, 1, 3, 3, 4), 2, 4) == (1, 1, 2, 3, 4)
    assert crystal.apply_f((1, 1, 3, 3, 4), 2, 4) is None
    assert crystal.apply_f((1, 1, 3, 3, 4), 0, 4) == (1, 1, 1, 3, 3)
    report(1, "e_2/f_2/f_0 on 11334 (n=4)")


def test_criterion_02_signature_rule():
    t = ((1, 2, 2, 3), (1, 1, 2), (2, 4))
    red = tensor.reduce_signature(tensor.signature(t, 1, 4))
    assert red.signs == ("-", "-", "+")
    assert red.origins == (0, 0, 1)  # factors one, one, two (0-based)
    assert tensor.tensor_e(t, 1, 4) == ((1, 1, 2, 3), (1, 1, 2), (2, 4))
    assert tensor.tensor_f(t, 1, 4) == ((1, 2, 2, 3), (1, 2, 2), (2, 4))
    report(2, "reduced signature --+ with origins (0,0,1); e_1/f_1 images")


def test_criterion_03_rmatrix_examples_both_routes():
    cases = [
        ((1, 1, 2, 3), (2, 3), ((1, 2), (1, 2, 3, 3)), -2),
        ((1, 1, 2, 3), (1, 2), ((1, 3), (1, 1, 2, 2)), -1),
        ((2, 3, 4, 4), (1, 2), ((4, 4), (1, 2, 2, 3)), 0),
    ]
    for b, bp, image, h in cases:
        assert iso_with_energy(b, bp, 4) == (image, h)
        assert iso_oracle(b, bp, 4) == (image, h)
    report(3, "three R-matrix lines with H = -2, -1, 0 by pairing and by oracle")


def test_criterion_04_oracle_equivalence():
    start = time.monotonic()
    cases = 0
    for n in (2, 3, 4):
        for l1, l2 in itertools.product((1, 2, 3), repeat=2):
            for (b, bp), expected in oracle_table(l1, l2, n).items():
                assert iso_with_energy(b, bp, n) == expected
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"pairing = oracle on {cases} pairs (l,l' <= 3, n <= 4) in {elapsed:.2f}s")


def test_criterion_05_yang_baxter():
    cases = 0
    for n in (2, 3, 4):
        for sizes in itertools.product((1, 2, 3), repeat=3):
            rep = yang_baxter_check(*sizes, n)
            assert rep.ok, (n, sizes, rep.counterexample)
            cases += rep.cases
    report(5, f"Yang-Baxter on all size triples in {{1,2,3}}^3, n in {{2,3,4}} ({cases} triples)")


def test_criterion_06_golden_displays():
    state = State.from_text(THREE_SOLITON_ROWS[0], 4)
    rows = [state.to_text()]
    for _ in range(6):
        state = evolve(state, None, 1)
        rows.append(state.to_text())
    assert rows == THREE_SOLITON_ROWS

    state = State.from_text(SINGLE_SOLITON_ROWS[0], 4)
    rows = [state.to_text()]
    for _ in range(3):
        state = evolve(state, 3, 1)
        rows.append(state.to_text())
    assert rows == SINGLE_SOLITON_ROWS
    report(6, "seven-row and four-row displays reproduced byte for byte")


@pytest.fixture(scope="module")
def ensemble():
    """Shared sweep over 1000 seeded random states for criteria 7 and 11."""
    stats = {"states": 0, "conservation": 0, "commutation": 0, "tableau": 0}
    for p in acceptance_ensemble():
        stats["states"] += 1
        tab = bump_tableau(p)
        traces = {l: carrier_pass(p, l) for l in range(1, 6)}
        e = {l: -sum(traces[l].h_values) for l in range(1, 6)}
        q = {l: traces[l].out_state for l in range(1, 6)}
        second = {}
        for lp in range(1, 6):
            if bump_tableau(q[lp]) != tab:
                stats["tableau"] += 1
            for l in range(1, 6):
                t2 = carrier_pass(q[lp], l)
                if -sum(t2.h_values) != e[l]:
                    stats["conservation"] += 1
                second[(l, lp)] = t2.out_state
        for l in range(1, 6):
            for lp in range(l + 1, 6):
                if second[(l, lp)].trim() != second[(lp, l)].trim():
                    stats["commutation"] += 1
    return stats


def test_criterion_07_conservation_and_commutation(ensemble):
    assert ensemble["states"] >= 1000
    assert ensemble["conservation"] == 0
    assert ensemble["commutation"] == 0
    report(7, f"E_l(T_l'(p)) = E_l(p) and T_l T_l' = T_l' T_l on {ensemble['states']} states, l,l' <= 5")


def test_criterion_08_single_soliton_law():
    checked = 0
    for n in (2, 3, 4):
        for l in range(1, 6):
            for content in itertools.combinations_with_replacement(range(1, n), l):
                word = tuple(sorted(content, reverse=True))
                p = state_with_solitons([(2, word)], n, tail=2)
                for k in range(1, 7):
                    assert energy(p, k) == min(k, l)
                    q = evolve(p, k, 1)
                    (s,) = detect(q, 1)
                    assert s.position == 2 + min(k, l) and s.content == word
                    checked += 1
    report(8, f"E_k = min(k,l) and shift by min(k,l) on {checked} single-soliton cases (l <= 5, k <= 6)")


def test_criterion_09_scattering():
    rep = run_scattering(State.from_text(THREE_SOLITON_ROWS[0], 4))
    assert rep.match
    assert rep.out_labels_simulated == (Affine(-8, (3,)), Affine(-4, (1, 3)), Affine(-5, (1, 2, 2)))
    assert rep.out_labels_predicted == rep.out_labels_simulated

    rng = seeded(97)
    mismatches = 0
    runs = 0
    while runs < 200:
        l1 = rng.randint(2, 4)
        l2 = rng.randint(1, l1 - 1)
        p = random_separated_state(rng, (l1, l2), 4)
        two = run_scattering(p)
        runs += 1
        if not two.match:
            mismatches += 1
    assert mismatches == 0
    report(9, f"three-soliton labels match; {runs} random two-soliton runs, {mismatches} mismatches")


def test_criterion_10_factorization_chain():
    step1 = predict_two_body(Affine(0, (2, 3, 3)), Affine(-6, (1, 1)))
    assert step1 == (Affine(-2, (3, 3)), Affine(-4, (1, 1, 2)))
    assert step1[0].d - (-6) == 4
    step2 = predict_two_body(Affine(-4, (1, 1, 2)), Affine(-11, (2,)))
    assert step2 == (Affine(-10, (1,)), Affine(-5, (1, 2, 2)))
    assert step2[0].d - (-11) == 1
    step3 = predict_two_body(Affine(-2, (3, 3)), Affine(-10, (1,)))
    assert step3 == (Affine(-8, (3,)), Affine(-4, (1, 3)))
    assert step3[0].d - (-10) == 2

    labels = (Affine(0, (2, 3, 3)), Affine(-6, (1, 1)), Affine(-11, (2,)))
    out = (Affine(-8, (3,)), Affine(-4, (1, 3)), Affine(-5, (1, 2, 2)))
    assert predict_m_body(labels, order=(0, 1, 0)) == out
    assert predict_m_body(labels, order=(1, 0, 1)) == out
    report(10, "chain deltas 4, 1, 2 and both bracketing orders agree")


def test_criterion_11_tableau_invariance(ensemble):
    assert ensemble["tableau"] == 0
    expected = ((1, 1, 2, 3, 3), (2,))
    assert bump_tableau(State.from_text(THREE_SOLITON_ROWS[0], 4)) == expected
    assert bump_tableau(State.from_text(THREE_SOLITON_ROWS[6], 4)) == expected
    report(11, f"tableau constant across {ensemble['states']} trajectories; equals 11233/2 for both words")


def test_criterion_12_soliton_counting():
    rng = seeded(404)
    cases = 0
    while cases < 100:
        n = rng.randint(2, 4)
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        p = random_separated_state(rng, lengths, n)
        constructed = {}
        for l in lengths:
            constructed[l] = constructed.get(l, 0) + 1
        assert spectrum(p).census() == constructed
        cases += 1
    report(12, f"spectral N_l census equals the constructed census on {cases} states")
