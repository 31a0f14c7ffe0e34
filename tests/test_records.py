"""The eight result records are part of the public API: their field names,
order and defaults, their immutability, ``_replace`` and their JSON.

The field literals are those the records had as frozen dataclasses, and
each JSON literal is what that form's ``to_json`` gave for the same
hand-built instance, so a record's shape cannot change unnoticed.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from jumpstat.algebra import Poly2
from jumpstat.genfunc import FirstFailure, Verdict
from jumpstat.guess import GuessResult, Limit, RationalFunctionN
from jumpstat.moments import (FormulaCheck, MomentRow, MomentTable,
                              ReferenceFormula, moment_table)

_FAIL = FirstFailure(3, Poly2({(1, 2): -2, (0, 0): 5}))
_FAIL_JSON = {"n": 3, "residual_terms": [
    {"et": 0, "eq": 0, "num": 5, "den": 1},
    {"et": 1, "eq": 2, "num": -2, "den": 1}]}
_MEAN = RationalFunctionN((-1, 1), (2,))
_MEAN_JSON = {"numerator": [-1, 1], "denominator": [2], "text": "(n - 1)/2"}
_DIVERGENT = {"kind": "divergent", "value": None}
_ZERO_ROW = {"b_n": 1, "raw": ["0", "0", "0"], "central": ["0", "0"],
             "scaled_even": {}, "scaled_odd_squared": {},
             "variance_defined": False}
_ROW = MomentRow(2, 2, (F(1, 2), F(1, 2), F(1, 2)), (F(1, 4), F(0)))
_ROW_JSON = {"n": 2, "b_n": 2, "raw": ["1/2", "1/2", "1/2"],
             "central": ["1/4", "0"], "scaled_even": {"2": "1"},
             "scaled_odd_squared": {"3": {"sign": 0, "value": "0"}},
             "variance_defined": True}
# the jumps table to moment 3 and size 2
_TABLE = MomentTable("jumps", 3, 2, (
    MomentRow(0, 1, (F(0),) * 3, (F(0), F(0))),
    MomentRow(1, 1, (F(0),) * 3, (F(0), F(0))), _ROW))

# class, its fields, its defaults, one instance and that instance's JSON
RECORDS = [
    (FirstFailure, ("n", "residual"), {}, _FAIL, _FAIL_JSON),
    (Verdict, ("theorem", "order", "passed", "first_failure"),
     {"first_failure": None}, Verdict("2", 10, False, _FAIL),
     {"theorem": "2", "order": 10, "pass": False,
      "first_failure": _FAIL_JSON}),
    (Limit, ("kind", "value"), {}, Limit("finite", F(1, 8)),
     {"kind": "finite", "value": "1/8"}),
    (GuessResult, ("formula", "degrees", "fit_points", "holdout_points"), {},
     GuessResult(_MEAN, (1, 0), 10, 3),
     {"formula": _MEAN_JSON, "degrees": [1, 0], "fit_points": 10,
      "holdout_points": 3, "limit": _DIVERGENT}),
    (MomentRow, ("n", "count", "raw", "central"), {}, _ROW, _ROW_JSON),
    (MomentTable, ("stat", "max_moment", "n_max", "rows"), {}, _TABLE,
     {"stat": "jumps", "max_moment": 3, "n_max": 2,
      "rows": [{"n": 0, **_ZERO_ROW}, {"n": 1, **_ZERO_ROW}, _ROW_JSON]}),
    (ReferenceFormula, ("tag", "stat", "kind", "r", "formula",
                        "sign_positive_from"),
     {"sign_positive_from": None},
     ReferenceFormula("8.3", "jumpdist", "scaled_squared", 3, _MEAN, 4),
     {"theorem": "8.3", "stat": "jumpdist", "kind": "scaled_squared",
      "r": 3, "formula": _MEAN_JSON, "limit": _DIVERGENT}),
    (FormulaCheck, ("tag", "passed", "checked_from", "checked_to",
                    "first_mismatch_n", "detail"),
     {"first_mismatch_n": None, "detail": ""},
     FormulaCheck("8.3", False, 2, 10, 4,
                  "sign -1 where positive is required"),
     {"theorem": "8.3", "pass": False, "checked_from": 2, "checked_to": 10,
      "first_mismatch_n": 4, "detail": "sign -1 where positive is required"}),
]
each_record = pytest.mark.parametrize(
    "cls,fields,defaults,record,as_json", RECORDS,
    ids=[cls.__name__ for cls, *_ in RECORDS])


@each_record
def test_a_record_keeps_its_fields_defaults_and_replace(
        cls, fields, defaults, record, as_json):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    replaced = record._replace(**{fields[0]: getattr(record, fields[0])})
    assert type(replaced) is cls and replaced == record


@each_record
def test_a_record_is_immutable(cls, fields, defaults, record, as_json):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@each_record
def test_a_record_writes_the_same_json(cls, fields, defaults, record,
                                       as_json):
    assert record.to_json() == as_json


def test_the_hand_built_table_is_the_computed_one():
    assert moment_table("jumps", 3, 2) == _TABLE
