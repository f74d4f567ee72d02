import random

import pytest

from boxball import crystal, tensor


THREE_FACTOR = ((1, 2, 2, 3), (1, 1, 2), (2, 4))


def test_signature_three_factor_example():
    sig = tensor.signature(THREE_FACTOR, 1, 4)
    assert "".join(sig.signs) == "--+-++-"
    assert sig.origins == (0, 0, 0, 1, 1, 1, 2)


def test_reduced_signature_three_factor_example():
    red = tensor.reduce_signature(tensor.signature(THREE_FACTOR, 1, 4))
    assert red.signs == ("-", "-", "+")
    # factor indices are 0-based
    assert red.origins == (0, 0, 1)


def test_tensor_ops_three_factor_example():
    assert tensor.tensor_e(THREE_FACTOR, 1, 4) == ((1, 1, 2, 3), (1, 1, 2), (2, 4))
    assert tensor.tensor_f(THREE_FACTOR, 1, 4) == ((1, 2, 2, 3), (1, 2, 2), (2, 4))


def test_signature_trivial_cases():
    assert tensor.signature(((4, 4, 4),), 1, 4).signs == ()
    sig = tensor.signature(((1, 1), (2, 2)), 1, 3)
    assert "".join(sig.signs) == "++--"
    assert tensor.reduce_signature(sig).signs == ()


def test_all_vacuum_tensor_has_no_raising():
    # colors below n-1 see neither their letter nor its successor
    t = ((4,), (4,), (4, 4))
    for i in (1, 2):
        assert tensor.tensor_e(t, i, 4) is None
        assert tensor.tensor_f(t, i, 4) is None


def _reduce_by_random_deletions(signs, origins, rng):
    """Oracle reducer: delete adjacent +- pairs in a random order."""
    items = list(zip(signs, origins))
    while True:
        sites = [k for k in range(len(items) - 1) if items[k][0] == "+" and items[k + 1][0] == "-"]
        if not sites:
            return tuple(s for s, _ in items), tuple(o for _, o in items)
        k = rng.choice(sites)
        del items[k : k + 2]


def test_reduce_is_confluent():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(0, 12)
        signs = tuple(rng.choice("+-") for _ in range(m))
        origins = tuple(range(m))
        sig = tensor.Signature(signs, origins)
        red = tensor.reduce_signature(sig)
        for _ in range(4):
            osigns, oorigins = _reduce_by_random_deletions(signs, origins, rng)
            assert (osigns, oorigins) == (red.signs, red.origins)


def test_reduce_cancels_everything():
    sig = tensor.Signature(("+", "-", "+", "-"), (0, 1, 2, 3))
    assert tensor.reduce_signature(sig).signs == ()
    sig = tensor.Signature(("+", "+", "-", "-"), (0, 1, 2, 3))
    assert tensor.reduce_signature(sig).signs == ()


def _two_factor_rule(op, b, bp, i, n):
    """The two-factor case split, written directly as the oracle."""
    if op == "e":
        if crystal.phi(b, i, n) >= crystal.epsilon(bp, i, n):
            eb = crystal.apply_e(b, i, n)
            return None if eb is None else (eb, bp)
        ebp = crystal.apply_e(bp, i, n)
        return None if ebp is None else (b, ebp)
    if crystal.phi(b, i, n) > crystal.epsilon(bp, i, n):
        fb = crystal.apply_f(b, i, n)
        return None if fb is None else (fb, bp)
    fbp = crystal.apply_f(bp, i, n)
    return None if fbp is None else (b, fbp)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_factor_rule_agreement(n):
    for l1 in (1, 2, 3):
        for l2 in (1, 2, 3):
            for b in crystal.elements(l1, n):
                for bp in crystal.elements(l2, n):
                    for i in range(n):
                        assert tensor.tensor_e((b, bp), i, n) == _two_factor_rule("e", b, bp, i, n)
                        assert tensor.tensor_f((b, bp), i, n) == _two_factor_rule("f", b, bp, i, n)


def test_tensor_e_f_mutually_inverse():
    n = 3
    for b in crystal.elements(2, n):
        for bp in crystal.elements(1, n):
            t = (b, bp)
            for i in range(n):
                ft = tensor.tensor_f(t, i, n)
                if ft is not None:
                    assert tensor.tensor_e(ft, i, n) == t
                et = tensor.tensor_e(t, i, n)
                if et is not None:
                    assert tensor.tensor_f(et, i, n) == t


def test_signature_counts_match_iteration():
    n = 3
    for b in crystal.elements(2, n):
        for bp in crystal.elements(2, n):
            t = (b, bp)
            for i in range(n):
                cur, m = t, 0
                while (cur := tensor.tensor_e(cur, i, n)) is not None:
                    m += 1
                reduced = tensor.reduce_signature(tensor.signature(t, i, n)).signs
                assert m == reduced.count("-")
                cur, m = t, 0
                while (cur := tensor.tensor_f(cur, i, n)) is not None:
                    m += 1
                assert m == reduced.count("+")


def test_null_propagates():
    assert tensor.tensor_e(None, 1, 4) is None
    assert tensor.tensor_f(None, 1, 4) is None


def test_is_highest_weight():
    # highest weight: e_i kills the tensor element for every color i in 1..n-2
    n = 4
    assert all(tensor.tensor_e(((1, 1, 1), (1, 1, 2, 2)), i, n) is None for i in range(1, n - 1))
    assert tensor.tensor_e(((2,), (1,)), 1, 3) is not None


def test_parse_format_tensor():
    t = tensor.parse_tensor("1223|112|24", 4)
    assert t == THREE_FACTOR
    assert tensor.format_tensor(t, 4) == "1223|112|24"
    with pytest.raises(ValueError):
        tensor.parse_tensor("12|21", 4)
