"""Tensor products of crystal elements and the signature rule.

A tensor element is a plain tuple of elements (factors may have
different lengths).  e_i / f_i act through the i-signature: each factor
contributes epsilon_i minus signs followed by phi_i plus signs, adjacent
"+-" pairs cancel, and the operator acts on the factor owning the
rightmost surviving "-" (for e_i) or the leftmost surviving "+" (for f_i).
`signature`/`reduce_signature` spell the signs out; the operators reduce
from the per-factor counts alone and never build the sign list.
"""

from typing import NamedTuple

from . import crystal


class Signature(NamedTuple):
    """A word of '+'/'-' signs, each tagged with the 0-based factor it came from."""

    signs: tuple
    origins: tuple

    def __str__(self):
        return "".join(self.signs)


def signature(t, i, n):
    """The i-signature of a tensor element, with factor origins."""
    crystal.check_color(i, n)
    signs = []
    origins = []
    for j, b in enumerate(t):
        eps = crystal.epsilon(b, i, n)
        ph = crystal.phi(b, i, n)
        signs.extend("-" * eps)
        signs.extend("+" * ph)
        origins.extend([j] * (eps + ph))
    return Signature(tuple(signs), tuple(origins))


def reduce_signature(sig):
    """Delete adjacent "+-" pairs until none remain.

    Single left-to-right pass: pluses wait on a stack and an incoming minus
    cancels the most recent one; a minus with no plus before it survives for
    good.  The result has shape -^a +^b and is independent of deletion order.
    """
    minus = []
    plus = []
    for sign, origin in zip(sig.signs, sig.origins):
        if sign == "+":
            plus.append(origin)
        elif plus:
            plus.pop()
        else:
            minus.append(origin)
    signs = ("-",) * len(minus) + ("+",) * len(plus)
    return Signature(signs, tuple(minus) + tuple(plus))


def targets(counts):
    """The factors e_i and f_i act on, as (e factor, f factor), None where undefined.

    counts holds each factor's (epsilon_i, phi_i).  The two-factor rule,
    folded left to right: a prefix whose reduced signature is -^eps +^phi
    times a factor with counts (m, p) has m - phi minuses of the factor
    surviving when m > phi, and e_i then acts on the factor, else in the
    prefix; the prefix's leftmost plus survives when phi > m, and f_i then
    acts in the prefix, else on the factor, if p > 0.  The product keeps
    p + max(0, phi - m) pluses.
    """
    e = f = None
    phi = 0
    for j, (m, p) in enumerate(counts):
        if m > phi:
            e = j
        if phi > m:
            phi += p - m
        else:
            phi, f = p, j if p else None
    return e, f


def _act(t, i, n, side):
    """e_i (side 0) or f_i (side 1) on a tensor element; None if undefined."""
    if t is None:
        return None
    crystal.check_color(i, n)
    j = targets([(crystal.epsilon(b, i, n), crystal.phi(b, i, n)) for b in t])[side]
    if j is None:
        return None
    return t[:j] + ((crystal.apply_f if side else crystal.apply_e)(t[j], i, n),) + t[j + 1 :]


def tensor_e(t, i, n):
    """e_i on a tensor element via the signature rule; None if undefined."""
    return _act(t, i, n, 0)


def tensor_f(t, i, n):
    """f_i on a tensor element via the signature rule; None if undefined."""
    return _act(t, i, n, 1)


def format_tensor(t, n):
    return "|".join(crystal.format_element(b, n) for b in t)


def parse_tensor(text, n):
    parts = text.strip().split("|")
    t = tuple(crystal.parse_element(p, n) for p in parts)
    return t
