"""The seven result records and `State`: fields, reprs, immutability, equality, pickling, and what importing them costs."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from boxball import dynamics, rmatrix, solitons, tensor
from boxball.dynamics import CarrierTrace, EnergySpectrum, State
from boxball.rmatrix import Pairing, YangBaxterReport
from boxball.solitons import ScatteringReport, Soliton
from boxball.tensor import Signature
from helpers import THREE_SOLITON_ROWS

FIELDS = {
    CarrierTrace: ("out_state", "h_values"),
    EnergySpectrum: ("e_values", "n_values"),
    Pairing: ("pairs", "unpaired"),
    YangBaxterReport: ("ok", "cases", "counterexample"),
    Signature: ("signs", "origins"),
    Soliton: ("length", "content", "position", "time"),
    ScatteringReport: (
        "in_labels",
        "out_labels_simulated",
        "out_labels_predicted",
        "match",
        "tableau_in",
        "tableau_out",
        "final_state",
        "steps",
    ),
}


def records():
    """One record of each kind, built by the library on the README's three-soliton state."""
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    return [
        dynamics.carrier_pass(State.from_text("332...11...2", 4), 3),
        dynamics.spectrum(p),
        rmatrix.pair((1, 1, 2, 3), (2, 3)),
        rmatrix.yang_baxter_check(1, 1, 1, 2),
        tensor.signature(((1, 1, 2), (2, 3)), 1, 4),
        solitons.detect(p)[0],
        solitons.run_scattering(p),
    ]


def test_reprs():
    assert [repr(r) for r in records()] == [
        "CarrierTrace(out_state=State('...332..11..2', n=4), h_values=(0, 0, 0, -1, -1, -1, 0, 0, -1, -1, 0, 0, -1))",
        "EnergySpectrum(e_values={0: 0, 1: 3, 2: 5, 3: 6, 4: 6}, n_values={1: 1, 2: 1, 3: 1, 4: 0})",
        "Pairing(pairs=((3, 2, False), (2, 1, False)), unpaired=(1, 3))",
        "YangBaxterReport(ok=True, cases=8, counterexample=None)",
        "Signature(signs=('-', '+', '+', '-'), origins=(0, 0, 0, 1))",
        "Soliton(length=3, content=(3, 3, 2), position=0, time=0)",
        "ScatteringReport(in_labels=(Affine(d=0, b=(2, 3, 3)), Affine(d=-6, b=(1, 1)), Affine(d=-11, b=(2,))),"
        " out_labels_simulated=(Affine(d=-8, b=(3,)), Affine(d=-4, b=(1, 3)), Affine(d=-5, b=(1, 2, 2))),"
        " out_labels_predicted=(Affine(d=-8, b=(3,)), Affine(d=-4, b=(1, 3)), Affine(d=-5, b=(1, 2, 2))),"
        " match=True, tableau_in=((1, 1, 2, 3, 3), (2,)), tableau_out=((1, 1, 2, 3, 3), (2,)),"
        " final_state=State('..............3.31.....221', n=4), steps=6)",
    ]
    p = State.from_text(THREE_SOLITON_ROWS[0], 4)
    assert repr(solitons.detect(p)[1:]) == (
        "[Soliton(length=2, content=(1, 1), position=6, time=0), Soliton(length=1, content=(2,), position=11, time=0)]"
    )
    assert str(tensor.signature(((1, 1, 2), (2, 3)), 1, 4)) == "-++-"


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    assert record._fields == FIELDS[type(record)]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(record):
    cls = type(record)
    values = [getattr(record, name) for name in FIELDS[cls]]
    twin = cls(*values)
    assert twin == record
    # a record is a named tuple: it equals the plain tuple of its fields
    assert record == tuple(values)
    if cls is EnergySpectrum:  # its dict fields are unhashable, as the record is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert len({twin, record}) == 1
    changed = cls(*values[:-1], "other")
    assert changed != record


@pytest.mark.parametrize("record", [State.from_text("@-3 332...11...2", 4), *records()], ids=lambda r: type(r).__name__)
def test_records_pickle_and_copy(record):
    # a State inside a record is rebuilt through State's checking constructor
    copies = [pickle.loads(pickle.dumps(record, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*copies, copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)


def test_state_is_a_checked_named_tuple():
    p = State.from_text("@-3 332...11...2", 4)
    assert State._fields == ("cells", "n", "origin")
    assert p == (p.cells, 4, -3) and len(p) == 3
    twin = State(*p)
    assert twin == p and hash(twin) == hash(p)
    for name in State._fields:
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    with pytest.raises(AttributeError):
        p.extra = None
    # every way back into a State checks the letters
    assert p._replace(origin=2) == State(p.cells, 4, 2)
    with pytest.raises(ValueError, match=re.escape("cell letter 9 out of range 1..4")):
        p._replace(cells=(9,))
    with pytest.raises(ValueError, match=re.escape("cell letter 0 out of range 1..4")):
        State._make(((0,), 4, 0))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(State((1, 2), 4), proto)
        # the cells (1, 2) become (1, 9): protocol 0 writes ints as text, the others as bytes
        tampered = data.replace(b"I1\nI2\n", b"I1\nI9\n").replace(b"K\x01K\x02", b"K\x01K\x09")
        assert tampered != data
        with pytest.raises(ValueError, match=re.escape("cell letter 9 out of range 1..4")):
            pickle.loads(tampered)


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site .pth files from importing anything on the library's behalf
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, boxball.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
