"""Single-row crystals over the alphabet {1, ..., n}.

An element of B_l is a weakly increasing word of length l, stored as a
plain tuple of ints.  The operators e_i / f_i (colors 0..n-1) return a
new tuple, or None when the action is undefined.  `table` lists all of
B_l with every element's counts and e_i images, by position.
"""

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import combinations_with_replacement


def _check_int(name, value, low):
    """Refuse anything but an int >= low; a bool is not an int here."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_color(i, n):
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"color index must be in 0..{n - 1}, got {i!r}")


def validate_element(b, n):
    """Raise ValueError unless b is a nonempty weakly increasing word over 1..n."""
    if not isinstance(b, tuple) or not b:
        raise ValueError(f"element must be a nonempty tuple of letters, got {b!r}")
    for x in b:
        if type(x) is not int or not 1 <= x <= n:
            raise ValueError(f"letter {x!r} out of range 1..{n}")
    if any(a > c for a, c in zip(b, b[1:])):
        raise ValueError(f"letters must be weakly increasing, got {b!r}")


def elements(l, n):
    """Iterate over all of B_l in lexicographic order."""
    return combinations_with_replacement(range(1, n + 1), l)


def epsilon(b, i, n):
    """Number of times e_i applies to b: the count of the letter i+1."""
    check_color(i, n)
    return b.count(i + 1)


def phi(b, i, n):
    """Number of times f_i applies to b: count of i (color i >= 1) or of n (color 0)."""
    check_color(i, n)
    return b.count(n if i == 0 else i)


def apply_e(b, i, n):
    """Raising operator e_i.

    Color i >= 1 turns the leftmost i+1 into i; color 0 removes a leading 1
    and appends an n.  Returns None when no letter can be changed.
    """
    check_color(i, n)
    if i == 0:
        if b[0] != 1:
            return None
        return b[1:] + (n,)
    j = bisect_left(b, i + 1)
    if j == len(b) or b[j] != i + 1:
        return None
    return b[:j] + (i,) + b[j + 1 :]


def apply_f(b, i, n):
    """Lowering operator f_i.

    Color i >= 1 turns the rightmost i into i+1; color 0 removes a trailing n
    and prepends a 1.  Returns None when no letter can be changed.
    """
    check_color(i, n)
    if i == 0:
        if b[-1] != n:
            return None
        return (1,) + b[:-1]
    j = bisect_right(b, i) - 1
    if j < 0 or b[j] != i:
        return None
    return b[:j] + (i + 1,) + b[j + 1 :]


@cache
def table(l, n):
    """B_l by lexicographic position, built once per (l, n): (elements, moves).

    elements[k] is the k-th element b, and moves[k][i] is
    ((epsilon_i, phi_i), position of e_i b), with None where e_i is
    undefined.
    """
    elems = tuple(elements(l, n))
    index = {b: k for k, b in enumerate(elems)}
    at = lambda b: None if b is None else index[b]
    moves = tuple(
        tuple(((epsilon(b, i, n), phi(b, i, n)), at(apply_e(b, i, n))) for i in range(n)) for b in elems
    )
    return elems, moves


def format_element(b, n):
    """Text form: concatenated digits for n <= 9, comma separated otherwise."""
    return ("," if n > 9 else "").join(str(x) for x in b)


def parse_element(text, n):
    """Inverse of format_element; rejects out-of-range or unsorted input.

    Fields are comma separated for n > 9, so "11" is the letter 11 there;
    for n <= 9 each digit is a letter unless the text has commas.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty element text")
    if n > 9 or "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"bad element text {text!r}")
    letters = tuple(int(p) for p in parts)
    validate_element(letters, n)
    return letters
