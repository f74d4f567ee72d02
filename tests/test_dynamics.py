import ast
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxball import dynamics
from boxball.dynamics import (
    CarrierTrace,
    State,
    _sweep,
    carrier_pass,
    energy,
    evolve,
    evolve_inverse,
    h_values,
    spectrum,
)
from boxball.tensor import tensor_e, tensor_f
from helpers import (
    SINGLE_SOLITON_ROWS,
    THREE_SOLITON_ROWS,
    acceptance_ensemble,
    ball_moving_inverse,
    ball_moving_step,
    letters,
    mirror,
    random_state,
    reference_spectrum,
    seeded,
    states,
)


def test_state_text_round_trip():
    p = State.from_text("332...11...2", 4)
    assert p.cells[:3] == (3, 3, 2)
    assert p.to_text() == "332...11...2"
    q = State.from_text("@-3 ..21", 4)
    assert q.origin == -3
    assert q.to_text() == "@-3 ..21"
    with pytest.raises(ValueError, match="column 3"):
        State.from_text("..x1", 4)
    with pytest.raises(ValueError):
        State.from_text("15", 4)  # 5 exceeds the alphabet
    with pytest.raises(ValueError, match="column 2: unexpected character '²'"):
        State.from_text("1²", 4)  # a digit to str.isdigit, but not ASCII
    # above nine letters the cells are comma separated
    r = State((1, 10, 11, 11), 11)
    assert r.to_text() == "1,10,.,."
    assert State.from_text("1,10,.,.", 11) == r
    assert State.from_text("@-2 .,3", 11) == State((11, 3), 11, -2)
    with pytest.raises(ValueError, match="column 3: unexpected cell '12'"):
        State.from_text("1,12,.", 11)
    # the origin prefix is an optional '-' and ASCII digits; int() alone also takes '1_0', '+3' and '٣'
    assert State.from_text("@12 .1", 4).to_text() == "@12 .1"
    assert State.from_text("@-0 1", 4) == State((1,), 4)
    for head in ("@1_0", "@٣", "@+3", "@", "@-", "@--3", "@3.0"):
        with pytest.raises(ValueError, match=re.escape(f"bad origin prefix '{head}'")):
            State.from_text(head + " 1", 4)
    # the constructor takes an int origin only, as it takes int cells only
    for origin in (1.5, "3", None, True, False):
        with pytest.raises(ValueError, match="^origin must be an integer, got "):
            State((1,), 4, origin)
    # a bool is an int to isinstance, but neither a letter nor an origin:
    # True would print as a cell 'True.' and as a prefix '@True ' that from_text refuses
    with pytest.raises(ValueError, match=re.escape("cell letter True out of range 1..2")):
        State((True, 2), 2)
    with pytest.raises(ValueError, match="^origin must be an integer, got True$"):
        State((1, 2), 2, True)


@pytest.mark.parametrize("n", ["4", None, 1, True, 2.5])
def test_state_refuses_a_bad_alphabet_size_before_the_text(n):
    # from_text checks n first, so it neither compares it with 9 nor blames the text
    message = f"^alphabet size must be an integer >= 2, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        State.from_text("33.2", n)
    with pytest.raises(ValueError, match=message):
        State((3, 3), n)


def test_state_text_round_trip_every_alphabet():
    rng = seeded(61)
    for n in range(2, 13):
        for _ in range(40):
            p = random_state(rng, n=n)
            p = State(p.cells, n, rng.randint(-20, 20))
            assert State.from_text(p.to_text(), n) == p
        # an empty window prints its prefix at every origin, 0 included
        for origin in (-1, 0, 1):
            empty = State((), n, origin)
            assert empty.to_text() == f"@{origin} "
            assert State.from_text(empty.to_text(), n) == empty


def test_trim():
    p = State.from_text("..12..", 4)
    t = p.trim()
    assert t.cells == (1, 2) and t.origin == 2
    assert State.from_text("....", 4).trim() == State((), 4, 0)
    assert t.trim() == t


def test_single_soliton_displays():
    state = State.from_text(SINGLE_SOLITON_ROWS[0], 4)
    for expected in SINGLE_SOLITON_ROWS[1:]:
        state = evolve(state, 3, 1)
        assert state.to_text() == expected


def test_three_soliton_displays():
    state = State.from_text(THREE_SOLITON_ROWS[0], 4)
    for expected in THREE_SOLITON_ROWS[1:]:
        state = evolve(state, None, 1)
        assert state.to_text() == expected


def test_carrier_pass_all_vacuum():
    p = State.from_text(".....", 4)
    trace = carrier_pass(p, 3)
    assert trace.out_state == p
    assert set(trace.h_values) <= {0}
    # the carrier ends all vacuum: every letter it took was emitted
    assert letters(trace.out_state) == letters(p)
    assert energy(p, 2) == 0


def test_carrier_trace_shape():
    p = State.from_text("332", 4)
    trace = carrier_pass(p, 3)
    assert len(trace.h_values) == len(trace.out_state.cells)
    # the carrier ends all vacuum: every letter it took was emitted
    assert letters(trace.out_state) == letters(p)
    assert trace.out_state.to_text() == "...332"
    assert trace.h_values == (0, 0, 0, -1, -1, -1)


def test_single_soliton_energies():
    p = State.from_text("..332..", 4)
    assert [energy(p, k) for k in (1, 2, 3, 4, 5)] == [1, 2, 3, 3, 3]


def test_three_soliton_energies():
    # lengths 3, 2, 1: E_l should match the census sum of min(k, l)
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    lengths = (3, 2, 1)
    for l in range(1, 6):
        assert energy(p, l) == sum(min(k, l) for k in lengths)
    assert [energy(p, l) for l in (1, 2, 3, 4)] == [3, 5, 6, 6]


def test_spectrum():
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    spec = spectrum(p)
    assert spec.census() == {1: 1, 2: 1, 3: 1}
    assert spec.e_values[0] == 0
    # second-difference values reproduce the energies
    for l in range(1, 5):
        assert spec.e_values[l] == sum(min(k, l) * c for k, c in spec.n_values.items())

    assert spectrum(State.from_text("...", 4)).census() == {}
    assert spectrum(State.from_text("..332..", 4)).census() == {3: 1}


@settings(max_examples=300, deadline=None)
@given(states(max_n=12, max_origin=50))
def test_state_text_round_trip_property(p):
    assert State.from_text(p.to_text(), p.n) == p


@settings(max_examples=300, deadline=None)
@given(states(max_n=12, max_origin=5), st.one_of(st.none(), st.integers(1, 6)))
def test_library_built_states_pass_validation(p, l):
    # trim, states, evolve, carrier_pass and evolve_inverse build their
    # results without re-checking the cells; the checking constructor must
    # accept each unchanged
    built = [p.trim(), evolve_inverse(p, l, 1), evolve_inverse(p, l, 2), *dynamics.states(p, l, 3)]
    for k in range(4):
        built.append(evolve(p, l, k))
        built += dynamics.states(p, l, k)
    built.append(carrier_pass(p, l or max(1, p.nonvacuum_count)).out_state)
    for q in built:
        assert type(q.cells) is tuple
        assert q == State(q.cells, q.n, q.origin)


@settings(max_examples=300, deadline=None)
@given(states())
def test_spectrum_matches_full_sweep(p):
    # spectrum stops where E_l stabilizes; the sweep to #letters+2 must give
    # the same census, energies and counts
    top = p.nonvacuum_count + 2
    e = {0: 0, **{l: energy(p, l) for l in range(1, top + 2)}}
    n_full = {l: -e[l - 1] + 2 * e[l] - e[l + 1] for l in range(1, top + 1)}
    spec = spectrum(p)
    assert spec.census() == {l: c for l, c in n_full.items() if c}
    assert set(spec.e_values) == set(range(len(spec.e_values)))
    assert all(spec.e_values[l] == e[l] for l in spec.e_values)
    assert set(spec.n_values) == set(range(1, len(spec.e_values)))
    assert all(spec.n_values[l] == n_full[l] for l in spec.n_values)
    # the sweep stops at the first l with E_l = E_{l-1}, at most #letters + 1
    last = len(spec.n_values)
    assert [l for l in range(1, top + 1) if e[l] == e[l - 1]][0] == last <= p.nonvacuum_count + 1


@settings(max_examples=300, deadline=None)
@given(states(max_cells=40))
def test_spectrum_matches_reference_loop(p):
    # the same records, keys in the same order, with one pass fewer than the
    # pass-per-l loop unless the state is empty: E_l = #letters at the
    # longest soliton length L, so E_{L+1} needs no pass
    expected = reference_spectrum(p)
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "energy", lambda q, l: passes.append(l) or energy(q, l))
        spec = spectrum(p)
    assert list(spec.e_values.items()) == list(expected.e_values.items())
    assert list(spec.n_values.items()) == list(expected.n_values.items())
    assert passes == list(range(1, max(2, len(expected.n_values))))


@settings(max_examples=300, deadline=None)
@given(states(max_cells=40))
def test_energy_at_the_letter_count_is_the_letter_count(p):
    # E_l = sum of min(l, length) over the solitons, and no soliton is longer than #letters
    k = p.nonvacuum_count
    assert k == 0 or energy(p, k) == k


def ten_elimination(p):
    """Pairs deleted per round when every adjacent (ball, vacuum) pair goes at once, n = 2.

    The window is padded on the right with one vacuum per ball, so each ball
    finds a vacuum to pair with; no carrier is run.
    """
    word = "".join(map(str, p.cells)) + "2" * p.nonvacuum_count
    rounds = []
    while "1" in word:
        rounds.append(word.count("12"))
        assert rounds[-1]
        word = word.replace("12", "")
    return rounds


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(1, 2), max_size=40), st.integers(-5, 5))
def test_spectrum_matches_ten_elimination(cells, origin):
    # Torii-Takahashi-Satsuma: round k of the 10-elimination deletes one pair
    # per soliton of length >= k, which is E_k - E_{k-1}, on any state,
    # mid-collision ones included; the table ends with one zero difference
    p = State(cells, 2, origin)
    e = spectrum(p).e_values
    assert [e[k] - e[k - 1] for k in range(1, len(e))] == ten_elimination(p) + [0]


def test_energy_monotone_and_stabilizing():
    rng = seeded(31)
    for _ in range(200):
        p = random_state(rng)
        k = max(1, p.nonvacuum_count)
        values = [energy(p, l) for l in range(1, k + 3)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[k - 1] == values[k] == values[k + 1]


def test_conservation_and_commutation():
    rng = seeded(12)
    for _ in range(150):
        p = random_state(rng)
        e = {l: energy(p, l) for l in range(1, 6)}
        q = {l: evolve(p, l, 1) for l in range(1, 6)}
        for l in range(1, 6):
            for lp in range(1, 6):
                assert energy(q[lp], l) == e[l]
            for lp in range(l + 1, 6):
                assert evolve(q[lp], l, 1).trim() == evolve(q[l], lp, 1).trim()


def test_letter_content_conserved():
    rng = seeded(3)
    for _ in range(100):
        p = random_state(rng)
        for l in (1, 2, 4):
            assert letters(evolve(p, l, 1)) == letters(p)


def test_full_evolution_matches_saturated_capacity():
    # T_l = T for l >= #letters, on 50 states and the ensemble of acceptance criteria 7 and 11
    rng = seeded(9)
    for p in [random_state(rng) for _ in range(50)] + acceptance_ensemble():
        k = max(1, p.nonvacuum_count)
        full = evolve(p, None, 1).trim()
        assert full == evolve(p, k, 1).trim() == evolve(p, k + 1, 1).trim() == evolve(p, k + 2, 1).trim()


def test_inverse_round_trip():
    rng = seeded(4)
    for _ in range(120):
        p = random_state(rng)
        for l in (1, 2, 3, 4):
            assert evolve_inverse(evolve(p, l, 1), l).trim() == p.trim()
            assert evolve(evolve_inverse(p, l), l, 1).trim() == p.trim()


def test_inverse_of_soliton_row():
    row2 = State.from_text(SINGLE_SOLITON_ROWS[1], 4)
    back = evolve_inverse(row2, 3)
    assert back.trim() == State.from_text(SINGLE_SOLITON_ROWS[0], 4).trim()
    vac = State.from_text("....", 4)
    assert evolve_inverse(vac, 2).trim() == vac.trim()


def test_trajectory_records_each_step():
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    qs = list(dynamics.states(p, None, 3))
    assert [q.to_text() for q in qs] == THREE_SOLITON_ROWS[1:4]
    assert carrier_pass(p, p.nonvacuum_count) == CarrierTrace(qs[0], h_values(p, qs[0]))
    assert -sum(h_values(p, qs[0])) == energy(p, max(1, p.nonvacuum_count))
    assert list(dynamics.states(p, None, 0)) == []
    assert evolve(p, None, 0) == p


def test_multistep_evolution():
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    assert evolve(p, None, 6).to_text() == THREE_SOLITON_ROWS[6]
    a = evolve(evolve(p, 2, 1), 3, 1)
    b = evolve(evolve(p, 3, 1), 2, 1)
    assert a.trim() == b.trim()


@settings(max_examples=300, deadline=None)
@given(states(max_cells=40, max_n=8, max_origin=5))
def test_full_evolution_matches_ball_moving_rule(p):
    # Takahashi's rule moves balls, not a carrier: no R-matrix and no h
    assert evolve(p, None).trim() == ball_moving_step(p)
    assert evolve_inverse(p, None).trim() == ball_moving_inverse(p)


def padded(cells, width, n):
    return (*cells, *(n,) * (width - len(cells)))


@settings(max_examples=200, deadline=None)
@given(states(max_cells=60, max_n=9, min_n=3), st.data())
def test_carrier_pass_commutes_with_sl_n_minus_1(p, data):
    # the vacuum n has an empty i-signature for colors i = 1..n-2, so a pass
    # commutes with e_i and f_i on the cells read as B_1 factors and keeps
    # every E_l; colors 0 and n-1 meet the vacuum and do change E_l
    n = p.n
    l = data.draw(st.sampled_from([1, 2, 3, 5, max(1, p.nonvacuum_count)]))
    out = tuple(_sweep(p.cells, n, l))
    cells = padded(p.cells, len(out), n)
    for i in range(1, n - 1):
        for op in (tensor_e, tensor_f):
            moved = op(tuple((x,) for x in cells), i, n)
            image = op(tuple((x,) for x in out), i, n)
            assert (moved is None) == (image is None)
            if moved is None:
                continue
            moved = [x for (x,) in moved]
            swept = _sweep(moved, n, l)
            width = max(len(swept), len(image))
            assert padded(swept, width, n) == padded([x for (x,) in image], width, n)
            assert energy(State(moved, n), l) == energy(p, l)


@settings(max_examples=300, deadline=None)
@given(states(max_n=12, max_cells=16, max_origin=5), st.one_of(st.none(), st.integers(1, 6)), st.integers(0, 6))
@example(State((), 3, -4), None, 3)
@example(State((), 5, 2), 2, 4)
def test_multistep_runs_equal_single_steps(p, l, k):
    # one run of k passes, T's capacity counted once for the run, equals k
    # single steps that each recount the letters
    forward = backward = p
    traces = []
    for _ in range(k):
        traces.append(carrier_pass(forward, l or max(1, forward.nonvacuum_count)))
        forward = evolve(forward, l)
        backward = evolve_inverse(backward, l)
    assert evolve(p, l, k) == forward
    assert evolve_inverse(p, l, k) == backward
    qs = list(dynamics.states(p, l, k))
    assert [CarrierTrace(q, h_values(prev, q)) for prev, q in zip([p, *qs], qs)] == traces
    if k:
        assert qs[-1] == evolve(p, l, k)


def test_mirror_example():
    # positions -3..4 map to 3..-4, and the letters 1, 2, 3 of n = 4 to 3, 2, 1
    p = State.from_text("@-3 .2.1.3..", 4)
    assert mirror(p).to_text() == "@-4 ..1.3.2."
    assert mirror(State((), 4, 3)) == State((), 4, -2)


@settings(max_examples=300, deadline=None)
@given(states(max_n=12, max_cells=16, max_origin=5), st.one_of(st.none(), st.integers(1, 6)), st.integers(0, 5))
@example(State((), 3, -4), None, 3)
def test_mirror_conjugates_evolution_into_its_inverse(p, l, k):
    m = mirror(p)
    assert mirror(m) == p
    assert len(m.cells) == len(p.cells)
    for i, x in enumerate(p.cells):
        # the letter at absolute position p.origin + i moves to -(p.origin + i), swapped
        assert m.cells[-(p.origin + i) - m.origin] == (x if x == p.n else p.n - x)
    assert evolve_inverse(p, l, k) == mirror(evolve(mirror(p), l, k))


@settings(max_examples=600, deadline=None)
@given(states(max_n=12, max_cells=16, max_origin=5), st.one_of(st.none(), st.integers(1, 6)), st.integers(0, 5), st.booleans())
def test_states_stream_each_step(p, l, k, inverse):
    # the stream is lazy, checked on the call, and its h are those of each
    # forward pass at T's capacity counted once; 600 examples give each
    # direction about 300
    stream = dynamics.states(p, l, k, inverse=inverse)
    assert iter(stream) is stream
    qs = list(stream)
    assert qs == [(evolve_inverse if inverse else evolve)(p, l, j) for j in range(1, k + 1)]
    if not inverse:
        cap = l or max(1, p.nonvacuum_count)
        assert [h_values(prev, q) for prev, q in zip([p, *qs], qs)] == [carrier_pass(prev, cap).h_values for prev in [p, *qs][:k]]


PRIVATE = {"_sweep", "_trusted"}


def test_only_dynamics_drives_the_passes():
    # the other modules read a run through states and h_values, and never
    # build a state unchecked; a name listed here must exist, or the guard is stale
    for name in PRIVATE:
        assert hasattr(dynamics, name) or hasattr(State, name), name
    modules = sorted(Path(dynamics.__file__).parent.glob("*.py"))
    assert {"cli.py", "solitons.py"} <= {path.name for path in modules}
    for path in modules:
        if path.name == "dynamics.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        assert not used & PRIVATE, path.name


@pytest.mark.parametrize("run", [evolve, evolve_inverse])
def test_multistep_memory_does_not_grow_with_steps(run):
    # only the current cells are kept: a run that kept one trace per step
    # peaked at about 2.9 MB here, against about 36 KB
    rng = seeded(16)
    p = State([rng.randint(1, 3) if rng.random() < 0.1 else 4 for _ in range(200)], 4)
    tracemalloc.start()
    try:
        q = run(p, None, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(q.cells) > 900
    assert peak < 256 * 1024


def test_single_pass_needs_a_capacity():
    # states reads None as T; a single pass of T_l and E_l have no such reading
    p = State.from_text("332...11...2", 4)
    for step in (carrier_pass, energy):
        with pytest.raises(ValueError, match="^carrier capacity must be an integer >= 1, got None$"):
            step(p, None)


def test_capacity_validation():
    p = State.from_text("12", 4)
    with pytest.raises(ValueError):
        carrier_pass(p, 0)
    with pytest.raises(ValueError):
        evolve_inverse(p, 0)
    with pytest.raises(ValueError):
        evolve(p, 2, -1)
    # a negative step count is an error for the inverse too, not a no-op
    for step in (evolve, evolve_inverse, dynamics.states):
        with pytest.raises(ValueError, match="^steps must be an integer >= 0, got -2$"):
            step(p, 3, -2)
        with pytest.raises(ValueError, match="^steps must be an integer >= 0, got -1$"):
            step(p, None, -1)
    assert evolve_inverse(p, 3, 0) == p
    # states checks on the call, before the stream is iterated
    with pytest.raises(ValueError, match="^carrier capacity must be an integer >= 1, got 0$"):
        dynamics.states(p, 0)
    with pytest.raises(ValueError, match="^steps must be an integer >= 0, got -1$"):
        dynamics.states(p, 2, -1)
    with pytest.raises(ValueError, match="^carrier capacity must be an integer >= 1, got 0$"):
        dynamics.states(p, 0, inverse=True)
    with pytest.raises(ValueError, match="^steps must be an integer >= 0, got -1$"):
        dynamics.states(p, 2, -1, inverse=True)
    # the capacity is checked before the first step, zero steps included
    for step, capacity in ((evolve, 0), (dynamics.states, -1), (evolve, 2.5), (evolve_inverse, 0), (dynamics.states, 0)):
        with pytest.raises(ValueError, match=f"^carrier capacity must be an integer >= 1, got {capacity}$"):
            step(p, capacity, 0)
    # a bool is not a capacity: True would otherwise run T_1
    for step in (carrier_pass, energy, evolve, evolve_inverse, dynamics.states):
        with pytest.raises(ValueError, match="^carrier capacity must be an integer >= 1, got True$"):
            step(p, True)
    # nor a step count, and a float or a string fails with the same message, not a raw TypeError
    for step in (evolve, evolve_inverse, dynamics.states):
        for steps in (True, 2.5, "2"):
            with pytest.raises(ValueError, match=f"^steps must be an integer >= 0, got {re.escape(repr(steps))}$"):
                step(p, 1, steps)
    for value in (True, 2.5, "2"):
        with pytest.raises(ValueError, match=f"^carrier capacity must be an integer >= 1, got {re.escape(repr(value))}$"):
            dynamics.states(p, value, inverse=True)
        with pytest.raises(ValueError, match=f"^steps must be an integer >= 0, got {re.escape(repr(value))}$"):
            dynamics.states(p, 1, value, inverse=True)
