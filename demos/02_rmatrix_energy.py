"""The combinatorial R-matrix: pairing diagram, energy, and Yang-Baxter.

Each right-column letter takes the largest available left letter below
it; lines with no such partner wrap around ("winding").  H is minus the
number of non-winding lines, and the R-matrix shifts spectral exponents
by +-H while swapping the elements.
"""

from boxball import crystal
from boxball.rmatrix import Affine, apply_r, format_affine, iso_oracle, iso_with_energy, pair, yang_baxter_check

n = 4
for left, right in [((1, 1, 2, 3), (2, 3)), ((1, 1, 2, 3), (1, 2)), ((2, 3, 4, 4), (1, 2))]:
    p = pair(left, right)
    (c1, c2), h = iso_with_energy(left, right, n)
    fm = lambda x: crystal.format_element(x, n)
    print(f"{fm(left)} (x) {fm(right)}  ->  {fm(c1)} (x) {fm(c2)}   H = {h}")
    for v, w, winding in p.pairs:
        print(f"    {v} <- {w} {'(winding)' if winding else ''}")
    print(f"    unpaired: {p.unpaired}")
print()

x, y = Affine(0, (1, 1, 2, 3)), Affine(0, (2, 3))
u, v = apply_r(x, y, n)
print(f"R({format_affine(x)} (x) {format_affine(y)}) = {format_affine(u)} (x) {format_affine(v)}")
print(f"round trip: {apply_r(u, v, n) == (x, y)}")
print()

print("the graph oracle recomputes the same map from e_i edges alone:")
print(f"  oracle((1123),(12)) = {iso_oracle((1, 1, 2, 3), (1, 2), n)}")
print()

print("Yang-Baxter equation, exhaustively on small crystals:")
for sizes in [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 3, 2)]:
    rep = yang_baxter_check(*sizes, n)
    print(f"  sizes {sizes}: {'PASS' if rep.ok else 'FAIL'} over {rep.cases} basis triples")
