"""The plain records: construction, defaults, equality, hashing and immutability."""

import inspect

import pytest

from jacksonlab import (ApproxResult, CheckReport, ConcavityRegions, ConvexityEstimate,
                        Delta2Result, KFuncResult, Nabla2Result, NormSpec, PatchResult,
                        SpaceGeometry, power)
from jacksonlab.lab import _Check, _dyadic_scales

_PHI = power(2.0)

# (record, required values, optional values, their defaults, one changed field, hashes):
# a frozen record hashes unless a field holds a dict, as `_Check.defaults` does
RECORDS = {
    "NormSpec": (NormSpec, (), ("lp", 4.0, None), {"variant": "lp", "p": 2.0, "phi": None},
                 ("p", 3.0), True),
    "Delta2Result": (Delta2Result, (True, 2.0, 1e-3), (), {}, ("K", 3.0), True),
    "Nabla2Result": (Nabla2Result, (True, 1.5), (), {}, ("a", 2.0), True),
    "ConcavityRegions": (ConcavityRegions, (2.0, ((1e-6, 1.0),)), (), {}, ("intervals", ()), True),
    "PatchResult": (PatchResult, (_PHI, 1.2), (), {}, ("A", 1.3), True),
    "ApproxResult": (ApproxResult, (3, 0.25, "partial_sum"), (), {},
                     ("method", "vallee_poussin"), True),
    "KFuncResult": (KFuncResult, (0.5, 2, "heat", 0.1), (4, ("note",)),
                    {"degree": None, "notes": ()}, ("value", 0.2), True),
    "CheckReport": (CheckReport, ("jackson-1.4", {"N": 32}, ((0, 1.0, 2.0),), (0.5,), 0.5, 1.0,
                                  "pass"), (3.5, 7, {"N": 32}, ("note",)),
                    {"runtime_ms": 0.0, "seed": 0, "resolutions": {}, "notes": ()},
                    ("verdict", "fail"), False),
    "ConvexityEstimate": (ConvexityEstimate, (0.5, ("F", "G"), "flat-vs-cos", 100), (), {},
                          ("trials", 200), True),
    "SpaceGeometry": (SpaceGeometry, ((0.0, 0.1), (0.0, 0.01), (0.0, 0.2), (0.0, 0.005), 2.0,
                                      2.0), (), {}, ("eta_exponent", 1.9), True),
    "_Check": (_Check, ("formula", "lower", ("note",), ("norm",)),
               ("order: ", len, len, range, len, len, {"n_range": (1, 5)}, (("r", len, "m"),),
                len, "threshold %g"),
               {"order": "rows ordered by (function, n); functions: ", "lhs": None,
                "term": None, "js": None, "scales": _dyadic_scales, "rows": None,
                "defaults": {}, "require": (), "bounds": None, "threshold_note": None},
               ("direction", "upper"), False),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_construction_defaults_equality_hashing_and_immutability(name):
    cls, required, optional, defaults, (changed, value), hashes = RECORDS[name]
    fields = list(inspect.signature(cls).parameters)
    values = required + optional
    assert len(fields) == len(values) and fields[len(required):] == list(defaults)
    # by position and by keyword, every field reads back what was given
    record = cls(*values)
    assert [getattr(record, f) for f in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    # left out, a field takes its default; a dict default is new for every record
    short = cls(*required)
    assert {f: getattr(short, f) for f in defaults} == defaults
    for f, default in defaults.items():
        if isinstance(default, dict):
            assert getattr(short, f) is not getattr(cls(*required), f)
    # equal field by field; one changed field, or another type, is unequal
    twin = cls(*values)
    other = cls(**dict(zip(fields, values), **{changed: value}))
    assert record == twin and not record != twin
    assert record != other and record != values and record != "record"
    if hashes:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for act in (lambda: setattr(record, changed, value), lambda: delattr(record, changed),
                lambda: setattr(record, "unknown", 1)):
        with pytest.raises(AttributeError):
            act()
    assert record == twin
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values, **{fields[-1]: values[-1]})


def test_check_replace_keeps_every_other_field():
    check = _Check("formula", "lower", ("note",), ("norm",), defaults={"n_range": (1, 5)})
    changed = check.replace(formula="other", lhs=len)
    assert (changed.formula, changed.lhs) == ("other", len)
    assert changed == _Check("other", "lower", ("note",), ("norm",), lhs=len,
                             defaults={"n_range": (1, 5)})
    assert check.formula == "formula" and check.lhs is None
    with pytest.raises(TypeError):
        check.replace(unknown=1)
