"""Tensor products of crystal elements and the signature rule.

A tensor element is a plain tuple of elements (factors may have
different lengths).  e_i / f_i act through the i-signature: each factor
contributes epsilon_i minus signs followed by phi_i plus signs, adjacent
"+-" pairs cancel, and the operator acts on the factor owning the
rightmost surviving "-" (for e_i) or the leftmost surviving "+" (for f_i).
"""

from dataclasses import dataclass

from . import crystal


@dataclass(frozen=True)
class Signature:
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


def tensor_e(t, i, n):
    """e_i on a tensor element via the signature rule; None if undefined."""
    if t is None:
        return None
    red = reduce_signature(signature(t, i, n))
    alpha = red.signs.count("-")
    if alpha == 0:
        return None
    j = red.origins[alpha - 1]
    new = crystal.apply_e(t[j], i, n)
    if new is None:
        raise RuntimeError(f"signature rule pointed e_{i} at a dead factor of {t!r}")
    return t[:j] + (new,) + t[j + 1 :]


def tensor_f(t, i, n):
    """f_i on a tensor element via the signature rule; None if undefined."""
    if t is None:
        return None
    red = reduce_signature(signature(t, i, n))
    alpha = red.signs.count("-")
    if alpha == len(red.signs):
        return None
    j = red.origins[alpha]
    new = crystal.apply_f(t[j], i, n)
    if new is None:
        raise RuntimeError(f"signature rule pointed f_{i} at a dead factor of {t!r}")
    return t[:j] + (new,) + t[j + 1 :]


def is_highest_weight(t, colors, n):
    """True iff e_i kills the tensor element for every color in colors."""
    return all(tensor_e(t, i, n) is None for i in colors)


def format_tensor(t, n):
    return "|".join(crystal.format_element(b, n) for b in t)


def parse_tensor(text, n):
    parts = text.strip().split("|")
    t = tuple(crystal.parse_element(p, n) for p in parts)
    return t
