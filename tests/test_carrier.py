"""The counted carrier of `dynamics` against the tuple carrier it replaced.

The reference passes below fold the single-letter R-matrix over a carrier
stored as a sorted tuple of length l, appending vacuum cells until the
carrier drains: one exchange per cell at O(l) each.  The forward pass
exchanges through `iso_single`, the inverse through the general map with
the letter on the left, `iso_with_energy((v,), carrier)`.  The library's
sweep must agree with them letter for letter, and the h values and E_l it
reads off the cells in and out must equal the R-matrix's.  The same folds
over `oracle_table`'s exchanges, read from the crystal graph alone, check
T_l and T_l^-1 without the pairing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.dynamics import State, carrier_pass, energy, evolve, evolve_inverse, h_values
from boxball.rmatrix import iso_single, iso_with_energy
from helpers import acceptance_ensemble, oracle_inverse, oracle_pass


def reference_pass(p, l):
    """(out state, h values, final carrier, load after the last input cell)."""
    n = p.n
    vacuum = (n,) * l
    carrier = vacuum
    out = []
    hs = []
    cells = p.cells
    load = 0
    i = 0
    while i < len(cells) or carrier != vacuum:
        assert i <= len(cells) + l, "reference carrier failed to drain"
        if i == len(cells):
            load = sum(x != n for x in carrier)
        v = cells[i] if i < len(cells) else n
        w, carrier, h = iso_single(carrier, v)
        out.append(w)
        hs.append(h)
        i += 1
    return State(out, n, p.origin), tuple(hs), carrier, load


def reference_inverse(p, l):
    """One step of T_l^-1: a right-to-left sweep, prepending vacuum cells until the carrier drains."""
    n = p.n
    vacuum = (n,) * l
    carrier = vacuum
    out = []
    for v in reversed(p.cells):
        (carrier, (w,)), _ = iso_with_energy((v,), carrier)
        out.append(w)
    prepended = 0
    while carrier != vacuum:
        assert prepended <= l, "reference inverse carrier failed to drain"
        (carrier, (w,)), _ = iso_with_energy((n,), carrier)
        out.append(w)
        prepended += 1
    out.reverse()
    return State(out, n, p.origin - prepended)


def assert_matches_reference(p, l):
    trace = carrier_pass(p, l)
    out, hs, final, load = reference_pass(p, l)
    assert trace.out_state == out
    assert trace.h_values == hs
    assert energy(p, l) == -sum(hs)
    assert final == (p.n,) * l
    # closed-form drain: one appended vacuum cell per letter still held
    assert len(trace.out_state.cells) - len(p.cells) == load
    assert evolve_inverse(p, l) == reference_inverse(p, l)
    assert evolve_inverse(p, l, 2) == reference_inverse(reference_inverse(p, l), l)


def capacities(p):
    """l = 1..5, #letters and #letters + 1."""
    k = p.nonvacuum_count
    return sorted({1, 2, 3, 4, 5, max(1, k), k + 1})


def test_carrier_matches_tuple_reference_on_ensemble():
    for p in acceptance_ensemble():
        for l in capacities(p):
            assert_matches_reference(p, l)


@st.composite
def states(draw, n_min=2, n_max=12, max_cells=25):
    n = draw(st.integers(n_min, n_max))
    cells = draw(st.lists(st.integers(1, n), max_size=max_cells))
    return State(cells, n, draw(st.integers(-5, 5)))


@settings(max_examples=300, deadline=None)
@given(states(), st.data())
def test_carrier_matches_tuple_reference(p, data):
    l = data.draw(st.integers(1, p.nonvacuum_count + 2))
    assert_matches_reference(p, l)
    for cap in capacities(p):
        assert energy(p, cap) == -sum(reference_pass(p, cap)[1])
    # the comma text form (n > 9) carries the output too
    out = carrier_pass(p, l).out_state
    assert State.from_text(out.to_text(), p.n) == out


@settings(max_examples=300, deadline=None)
@given(states(n_max=5, max_cells=25), st.integers(1, 4))
def test_carrier_matches_crystal_graph(p, l):
    out, hs = oracle_pass(p, l)
    assert evolve(p, l) == out
    assert h_values(p, out) == hs
    assert energy(p, l) == -sum(hs)
    assert evolve_inverse(p, l) == oracle_inverse(p, l)


def test_full_inverse_undoes_full_evolution():
    for p in acceptance_ensemble():
        assert evolve_inverse(evolve(p, None), None).trim() == p.trim()
        assert evolve(evolve_inverse(p, None), None).trim() == p.trim()
        k = max(1, p.nonvacuum_count)
        assert evolve_inverse(p, None) == evolve_inverse(p, k)


@settings(max_examples=200, deadline=None)
@given(states(n_max=6), st.integers(1, 6))
def test_inverse_undoes_evolution(p, l):
    assert evolve_inverse(evolve(p, l), l).trim() == p.trim()
    assert evolve(evolve_inverse(p, l), l).trim() == p.trim()


@settings(max_examples=200, deadline=None)
@given(states(n_max=6), st.integers(1, 6), st.integers(1, 6))
def test_evolutions_commute(p, k, l):
    assert evolve(evolve(p, l), k).trim() == evolve(evolve(p, k), l).trim()
