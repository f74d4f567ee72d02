"""The counted carrier of `dynamics` against the carrier folded from the R-matrix.

`helpers.fold_pass` and `helpers.fold_inverse` fold an exchange of one
letter with a carrier stored as a sorted tuple of length l, one cell at a
time, adding vacuum cells until the carrier drains: left to right through
B_l (x) B_1 -> B_1 (x) B_l for T_l, right to left through
B_1 (x) B_l -> B_l (x) B_1 for T_l^-1.  Over the pairing's
`iso_with_energy` the library's sweep must agree with them letter for
letter, also at large alphabets, and the h values and E_l it reads off the
cells in and out must equal the R-matrix's.  Over `iso_oracle`, read from
the crystal graph alone, they check T_l and T_l^-1 without the pairing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.dynamics import State, _sweep, carrier_pass, energy, evolve, evolve_inverse, h_values
from boxball.rmatrix import iso_oracle, iso_with_energy
from helpers import acceptance_ensemble, bytecode_count, fold_inverse, fold_pass, seeded, states


def assert_matches_reference(p, l):
    trace = carrier_pass(p, l)
    out, hs, held = fold_pass(p, l, iso_with_energy)
    assert trace.out_state == out
    assert trace.h_values == hs
    assert energy(p, l) == -sum(hs)
    # closed-form drain: one appended vacuum cell per letter still held
    assert len(out.cells) - len(p.cells) == l - held.count(p.n)
    back = fold_inverse(p, l, iso_with_energy)
    assert evolve_inverse(p, l) == back
    assert evolve_inverse(p, l, 2) == fold_inverse(back, l, iso_with_energy)


def capacities(p):
    """l = 1..5, #letters and #letters + 1."""
    k = p.nonvacuum_count
    return sorted({1, 2, 3, 4, 5, max(1, k), k + 1})


def test_carrier_matches_tuple_reference_on_ensemble():
    for p in acceptance_ensemble():
        for l in capacities(p):
            assert_matches_reference(p, l)


def test_carrier_matches_tuple_reference_at_large_alphabets():
    # the scans for a held letter walk the empty letter slots one by one
    rng = seeded(20261020)
    for n in (40, 200, 1000):
        for _ in range(100):
            cells = [rng.randint(1, n - 1) if rng.random() < 0.5 else n for _ in range(rng.randint(0, 30))]
            p = State(cells, n, rng.randint(-5, 5))
            for l in {1, 2, 3, max(1, p.nonvacuum_count)}:
                assert_matches_reference(p, l)


@pytest.mark.parametrize(
    "text, n, l",
    [
        ("", 4, 1),  # the empty window
        ("....", 4, 2),  # the carrier never loads
        ("..21", 4, 2),  # the last cell finds the carrier loaded, so the drain runs
        ("1.", 3, 1),  # forwards, the carrier empties at the last cell
        (".1", 3, 1),  # backwards, likewise
        ("21", 4, 1),  # a letter meets a full carrier with nothing held below it, either way
        ("1.11..1.", 2, 1),  # n = 2: the only letter is 1
        ("1.11..1.", 2, 2),
    ],
)
def test_sweep_exits_match_tuple_reference(text, n, l):
    """The exits of the empty-carrier and the loaded-carrier loops, in both directions."""
    p = State.from_text(text, n)
    assert evolve(p, l) == fold_pass(p, l, iso_with_energy)[0]
    assert evolve_inverse(p, l) == fold_inverse(p, l, iso_with_energy)


def test_sweep_cost_per_empty_vacuum_cell():
    """Pins _sweep to a linear cost of at most 13 bytecode instructions per vacuum cell an empty carrier meets.

    Over all-vacuum windows, in both directions, 1,000 more cells execute at
    most 13,000 more instructions.
    """
    for inverse in (False, True):
        small, big = (bytecode_count(_sweep, (4,) * size, 4, 3, inverse) for size in (1000, 2000))
        assert big - small <= 13_000, (inverse, small, big)


@settings(max_examples=300, deadline=None)
@given(states(max_n=12, max_origin=5), st.data())
def test_carrier_matches_tuple_reference(p, data):
    l = data.draw(st.integers(1, p.nonvacuum_count + 2))
    assert_matches_reference(p, l)
    for cap in capacities(p):
        assert energy(p, cap) == -sum(fold_pass(p, cap, iso_with_energy)[1])
    # the comma text form (n > 9) carries the output too
    out = carrier_pass(p, l).out_state
    assert State.from_text(out.to_text(), p.n) == out


@settings(max_examples=300, deadline=None)
@given(states(max_n=5, max_origin=5), st.integers(1, 4))
def test_carrier_matches_crystal_graph(p, l):
    out, hs, _ = fold_pass(p, l, iso_oracle)
    assert evolve(p, l) == out
    assert h_values(p, out) == hs
    assert energy(p, l) == -sum(hs)
    assert evolve_inverse(p, l) == fold_inverse(p, l, iso_oracle)


def test_full_inverse_undoes_full_evolution():
    for p in acceptance_ensemble():
        assert evolve_inverse(evolve(p, None), None).trim() == p.trim()
        assert evolve(evolve_inverse(p, None), None).trim() == p.trim()
        k = max(1, p.nonvacuum_count)
        assert evolve_inverse(p, None) == evolve_inverse(p, k)


@settings(max_examples=200, deadline=None)
@given(states(max_origin=5), st.integers(1, 6))
def test_inverse_undoes_evolution(p, l):
    assert evolve_inverse(evolve(p, l), l).trim() == p.trim()
    assert evolve(evolve_inverse(p, l), l).trim() == p.trim()


@settings(max_examples=200, deadline=None)
@given(states(max_origin=5), st.integers(1, 6), st.integers(1, 6))
def test_evolutions_commute(p, k, l):
    assert evolve(evolve(p, l), k).trim() == evolve(evolve(p, k), l).trim()
