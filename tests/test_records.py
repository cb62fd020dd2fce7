"""What the package's records promise their callers: they cannot be
changed once built, the validating ones coerce and refuse their inputs,
each compares and hashes as the tuple of all its fields, evidence
included, and each reads back as its constructor call."""

import math
import re

import pytest

from delaylogistic.delay_map import DelayParams, Trajectory
from delaylogistic.discretization import FORWARD, SchemeParams
from delaylogistic.jury import JuryTable, StabilityVerdict, jury_table
from delaylogistic.polynomial import Polynomial
from delaylogistic.sweep import BoundaryPoint, BoundaryTable, critical_r


def _records():
    point = BoundaryPoint(tau=0, r_critical=1.0, bracket_width=1e-10, tables=14)
    table = jury_table(Polynomial((1.0, -1.0, 0.5)))
    return [
        (Polynomial((1.0, 0.5)), "coeffs"),
        (DelayParams(r=0.5, K=1.0, tau=2), "tau"),
        (Trajectory((0.5, 0.5), -1), "diverged"),
        (SchemeParams(r=1.0, K=1.0, h=0.5, scheme=FORWARD), "r"),
        (table, "terms"),
        (StabilityVerdict("stable", None, "jury", table=table), "table"),
        (point, "r_critical"),
        (BoundaryTable(points=(point,), monotone_decreasing=True), "points"),
    ]


@pytest.mark.parametrize("record, field", _records(),
                         ids=[type(record).__name__ for record, _ in _records()])
def test_a_record_cannot_be_changed(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.note = "added"
    assert repr(record) == before


def test_verdicts_and_tables_compare_on_every_field():
    # the evidence takes part in equality and hash as any other field does
    table = jury_table(Polynomial((1.0, -1.0, 0.5)))
    bare = StabilityVerdict("stable", None, "jury")
    verdict = StabilityVerdict("stable", None, "jury", table=table)
    assert verdict != bare and not verdict == bare
    assert verdict == StabilityVerdict("stable", None, "jury", table=table)
    terms = tuple((0.0, 0.0, 0.0, 0.0) for _ in table.terms)
    other = JuryTable(*table[:4], terms)
    assert other != table and not other == table
    assert hash(other) == hash(JuryTable(*table[:4], terms))


def test_validating_records_coerce_their_fields():
    params = DelayParams(r=1, K=2, tau=3.0)
    assert (params.r, params.K, params.tau) == (1.0, 2.0, 3)
    assert [type(x) for x in (params.r, params.K, params.tau)] == [float, float, int]
    p = Polynomial([1, -1, 0.5])
    assert p.coeffs == (1.0, -1.0, 0.5) and type(p.coeffs) is tuple
    assert [type(c) for c in p.coeffs] == [float, float, float]


@pytest.mark.parametrize("build, message", [
    (lambda: DelayParams(r=math.nan, K=1.0, tau=0), "r must be finite, got nan"),
    (lambda: DelayParams(r=0.5, K=0.0, tau=0), "K must be positive and finite, got 0.0"),
    (lambda: DelayParams(r=0.5, K=math.inf, tau=0), "K must be positive and finite, got inf"),
    (lambda: DelayParams(r=0.5, K=1.0, tau=-1),
     "tau must be a non-negative integer, got -1"),
    (lambda: DelayParams(r=0.5, K=1.0, tau=1.5),
     "tau must be a non-negative integer, got 1.5"),
    (lambda: Polynomial(()), "a polynomial needs at least one coefficient"),
    (lambda: Polynomial((1.0, math.inf)), "non-finite coefficient in (1.0, inf)"),
    (lambda: SchemeParams(r=1.0, K=-1.0, h=1.0, scheme=FORWARD),
     "K must be positive and finite, got -1.0"),
    (lambda: SchemeParams(r=1.0, K=1.0, h=0.0, scheme=FORWARD),
     "h must be positive and finite, got 0.0"),
    (lambda: SchemeParams(r=1.0, K=1.0, h=1.0, scheme="midpoint"),
     "scheme must be 'forward' or 'ratio', got 'midpoint'"),
])
def test_validating_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_make_and_replace_check_and_coerce_as_the_constructor_does():
    # a named tuple's own _make and _replace build the tuple past __new__
    params = DelayParams(0.5, 1.0, 2)
    with pytest.raises(ValueError, match="^K must be positive and finite, got 0.0$"):
        params._replace(K=0.0)
    with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
        Polynomial._make([[1, "x"]])
    with pytest.raises(ValueError, match="^h must be positive and finite, got -1.0$"):
        SchemeParams(1.0, 1.0, 0.5, FORWARD)._replace(h=-1.0)
    replaced = params._replace(tau=3.0)
    assert replaced == DelayParams(0.5, 1.0, 3) and type(replaced) is DelayParams
    assert type(replaced.tau) is int
    made = Polynomial._make([[1, 2]])
    assert made.coeffs == (1.0, 2.0) and type(made) is Polynomial


def test_records_read_back_as_their_constructor_calls():
    assert repr(DelayParams(0.5, 1, 2)) == "DelayParams(r=0.5, K=1.0, tau=2)"
    assert repr(Polynomial((1, -0.5))) == "Polynomial(coeffs=(1.0, -0.5))"
    assert (repr(SchemeParams(1.0, 1.0, 0.5, FORWARD))
            == "SchemeParams(r=1.0, K=1.0, h=0.5, scheme='forward')")
    assert (repr(Trajectory((0.5,), 0))
            == "Trajectory(values=(0.5,), first_step=0, diverged=False)")
    assert (repr(StabilityVerdict("marginal", 1, "jury"))
            == "StabilityVerdict(status='marginal', witness=1, method='jury', table=None)")
    table = jury_table(Polynomial((1.0, 0.5)))
    assert repr(table) == ("JuryTable(live=((1.0, 0.5),), shifts=(0,), radius=1.0, "
                           f"readings=(True,), terms={table.terms!r})")
    point = critical_r(0)
    assert repr(point) == (f"BoundaryPoint(tau=0, r_critical={point.r_critical!r}, "
                           f"bracket_width={point.bracket_width!r}, tables={point.tables})")
    assert (repr(BoundaryTable((), False))
            == "BoundaryTable(points=(), monotone_decreasing=False)")
