"""Carrier dynamics: evolve states, then read off the conserved quantities.

A capacity-l carrier sweeps each state left to right.  An exchange has
h = -1 where the letter the carrier hands back is below the letter it
takes in, so the h values are read off the cells before and after the
sweep.  Minus their sum is E_l, which every other evolution preserves, and
whose second differences count solitons by length.
"""

from boxball.dynamics import State, energy, evolve, evolve_inverse, h_values, spectrum, states

n = 4

print("a single soliton of length 3 moves 3 cells per step under T:")
state = State.from_text("....332.............", n)
print(" ", state.to_text())
for q in states(state, 3, 3):
    print(" ", q.to_text())
print()

print("three solitons scatter and reorder (lengths 3, 2, 1):")
state = State.from_text("332...11...2..............", n)
print(" ", state.to_text())
for q in states(state, None, 6):
    marks = "".join("^" if h else " " for h in h_values(state, q))
    print(" ", q.to_text(), "  H picks:", marks.rstrip())
    state = q
print()

p = State.from_text("332...11...2..............", n)
print("conserved quantities of the initial state:")
spec = spectrum(p)
for l in range(1, 5):
    print(f"  E_{l} = {spec.e_values[l]}   N_{l} = {spec.n_values[l]}")
print()

print("E_l is invariant under every T_l':")
for lp in (1, 2, 3, 5):
    q = evolve(p, lp, 1)
    print(f"  after T_{lp}: E = {[energy(q, l) for l in range(1, 5)]}")
print()

print("evolutions are invertible:")
q = evolve(p, 2, 1)
back = evolve_inverse(q, 2)
print(f"  T_2 then its inverse returns the start: {back.trim() == p.trim()}")
