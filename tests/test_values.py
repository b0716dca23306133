"""The value-class contract, checked on one instance of each value class.

Every value class of the package is immutable, equal to an instance of its
own class with the same fields, hashed by the tuple of its fields, and
pickled as its field dict, so that pickles load across versions.
"""

import base64
import inspect
import pickle
import random

import pytest

from cuspforge.divisor import (
    Chain,
    classify_fiber,
    contracts_to_smooth_point,
    hn_chain_identities,
    resolution_graph,
)
from cuspforge.families import CurveRecord, FamilySpec, distinctness_audit, generate
from cuspforge.hn import RAW, STANDARD, HNPair, HNSequence, _Frozen, parse_hn, validate
from cuspforge.invariants import (
    REDUCED,
    MultiplicitySequence,
    PuiseuxCharacteristic,
    Semigroup,
    cusp_record,
)
from cuspforge.verify import Check, FibrationLedger, full_audit
from support import random_fiber, random_standard_hn, random_tree, replaced


def _instances() -> dict:
    """One instance of each value class, by class name, from the test corpora."""
    rng = random.Random(19)
    std = random_standard_hn(rng, max_h=3)
    record = cusp_record(std)
    res = resolution_graph(std)
    pair = random_standard_hn(rng, max_h=1).pairs[0]
    failing = validate(HNSequence((HNPair(4, 8), HNPair(4, 3)), STANDARD))
    spec = FamilySpec("A", (2, 3, 2))
    curve = generate(spec)
    report = full_audit(curve)
    objs = [
        std.pairs[0], std, failing, failing.violations[0],
        record, record.mult, record.char, record.puiseux, record.semigroup,
        random_tree(rng, 7), Chain(tuple(rng.randint(2, 6) for _ in range(5))),
        contracts_to_smooth_point(res.tree), classify_fiber(random_fiber(rng, 6)),
        res, hn_chain_identities(pair.c, pair.p),
        spec, curve, distinctness_audit([curve, curve]),
        report.checks[0], report, FibrationLedger(2, 0, (1, 2), (0, 1)),
    ]
    return {type(obj).__name__: obj for obj in objs}


INSTANCES = _instances()
# equal up to isomorphism (WeightedTree) or reversal (Chain), with a hash to match
CUSTOM_EQ = {"WeightedTree", "Chain"}
# the records that validate nothing, built by the constructor `_Frozen` compiles
PLAIN = {"Violation", "ValidationReport", "CuspRecord", "ContractionResult", "FiberReport",
         "MarkedResolution", "ChainIdentityReport", "DistinctnessReport", "Check", "AuditReport"}


def _twin(obj, base):
    """An instance of a new subclass of `base` with the fields of `obj`."""
    twin = object.__new__(type("Twin", (base,), {"_fields": obj._fields}))
    twin.__dict__.update(vars(obj))
    return twin


def test_every_value_class_has_an_instance():
    package = {cls.__name__ for cls in _Frozen.__subclasses__()
               if cls.__module__.startswith("cuspforge.")}
    assert package == set(INSTANCES) and len(package) == 21


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_contract(name):
    obj = INSTANCES[name]
    cls = type(obj)
    values = tuple(getattr(obj, field) for field in obj._fields)
    assert cls.__match_args__ == obj._fields

    copy = replaced(obj)
    assert copy is not obj and copy == obj and hash(copy) == hash(obj)
    assert obj != _twin(obj, _Frozen)
    if name not in CUSTOM_EQ:
        assert obj != _twin(obj, cls)   # a subclass is another class too
        assert hash(obj) == hash(values)

    shown = ", ".join(f"{field}={value!r}" for field, value in zip(obj._fields, values))
    assert repr(obj) == f"{name}({shown})"

    for field in obj._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert all(getattr(obj, f) is v for f, v in zip(obj._fields, values))

    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and hash(back) == hash(obj)


def test_only_the_plain_records_use_the_compiled_constructor():
    compiled = {name for name, obj in INSTANCES.items()
                if type(obj).__init__.__code__.co_filename == "<string>"}
    assert compiled == PLAIN


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_construction_by_fields(name):
    obj = INSTANCES[name]
    cls = type(obj)
    values = [getattr(obj, field) for field in obj._fields]
    by_name = dict(zip(obj._fields, values))
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(obj._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
    assert cls.__init__.__qualname__ == f"{name}.__init__"

    for built in (cls(*values), cls(**by_name)):
        assert type(built) is cls and built == obj and hash(built) == hash(obj)
        assert all(getattr(built, f) is v for f, v in by_name.items())
        assert vars(built) == by_name

    with pytest.raises(TypeError, match=f"{name}.__init__.. missing 1 required"):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**by_name, extra=None)


@pytest.mark.parametrize("name", ["HNSequence", "MultiplicitySequence", "Chain", "WeightedTree"])
def test_trusted_construction_by_fields(name):
    # the compiled `_trusted` skips the checks and builds what the validating
    # constructor builds; both are compared before a hash fills a cache
    obj = INSTANCES[name]
    cls = type(obj)
    values = [getattr(obj, field) for field in obj._fields]
    validated, trusted = cls(*values), cls._trusted(*values)
    assert type(trusted) is cls
    fields = list(zip(obj._fields, values))
    assert list(vars(trusted).items()) == list(vars(validated).items()) == fields
    assert pickle.dumps(trusted) == pickle.dumps(validated)
    assert trusted == validated and hash(trusted) == hash(validated)


def test_a_subclass_keeps_a_hand_written_constructor():
    class Pair(HNPair):
        pass

    class Report(Check):
        _fields = Check._fields + ("note",)

    with pytest.raises(TypeError, match="HN pair entries must be integers"):
        Pair(0, "x")
    assert Pair(13, 4).c == 13
    assert Report("a", True, 1, 1, "n").note == "n"
    assert list(inspect.signature(Report).parameters) == list(Report._fields)


def test_repr_shows_fields_only():
    assert repr(HNPair(13, 4)) == "HNPair(c=13, p=4)"
    assert repr(Semigroup((2, 3))) == "Semigroup(generators=(2, 3))"
    assert repr(PuiseuxCharacteristic((2, 3))) == "PuiseuxCharacteristic(beta=(2, 3))"


def test_derived_values_are_no_fields():
    # conductor, the semigroup's levels and the gcd chain e take no part in
    # equality; a pickle keeps them
    s = Semigroup((4, 6, 13))
    assert s._fields == ("generators",) and s.conductor == 16
    back = pickle.loads(pickle.dumps(s))
    assert (back.conductor, back._levels) == (s.conductor, s._levels)
    char = PuiseuxCharacteristic((4, 6, 13))
    assert char._fields == ("beta",) and char.e == (4, 2, 1)


def test_keyword_construction_and_defaults():
    pairs = (HNPair(c=13, p=4),)
    assert HNSequence(pairs=pairs) == HNSequence(pairs, STANDARD)
    assert HNSequence(pairs, flavor=RAW).flavor == RAW
    assert MultiplicitySequence(runs=((4, 3),)).form == REDUCED
    assert Chain().entries == ()
    curve = CurveRecord(degree=4, gamma=1, cusps=((parse_hn("3/2"), parse_hn("3/2")),))
    assert curve.family is None
    assert FibrationLedger(h=1, nu=1, sigmas=(1,)).chis is None
    match HNPair(13, 4):
        case HNPair(c, p):
            assert (c, p) == (13, 4)


# The pickle (protocol 2) of
#   (cusp_record(parse_hn("13/4")), FamilySpec("A", (2, 3, 2)), Chain((2, 3)),
#    FibrationLedger(2, 0, (1, 2), (0, 1)))
# as the frozen-dataclass versions of these classes wrote it.
DATACLASS_PICKLE = (
    "gAIoY2N1c3Bmb3JnZS5pbnZhcmlhbnRzCkN1c3BSZWNvcmQKcQApgXEBfXECKFgCAAAAaG5xA2NjdXNw"
    "Zm9yZ2UuaG4KSE5TZXF1ZW5jZQpxBCmBcQV9cQYoWAUAAABwYWlyc3EHY2N1c3Bmb3JnZS5obgpITlBh"
    "aXIKcQgpgXEJfXEKKFgBAAAAY3ELSw1YAQAAAHBxDEsEdWKFcQ1YBgAAAGZsYXZvcnEOWAgAAABzdGFu"
    "ZGFyZHEPWAoAAAB2YWxpZGF0aW9ucRBjY3VzcGZvcmdlLmhuClZhbGlkYXRpb25SZXBvcnQKcREpgXES"
    "fXETKFgCAAAAb2txFIhYCgAAAHZpb2xhdGlvbnNxFSl1YnViWAQAAABtdWx0cRZjY3VzcGZvcmdlLmlu"
    "dmFyaWFudHMKTXVsdGlwbGljaXR5U2VxdWVuY2UKcRcpgXEYfXEZKFgEAAAAcnVuc3EaSwRLA4ZxG0sB"
    "SwSGcRyGcR1YBAAAAGZvcm1xHlgEAAAAZnVsbHEfdWJYBAAAAGNoYXJxIGNjdXNwZm9yZ2UuaW52YXJp"
    "YW50cwpQdWlzZXV4Q2hhcmFjdGVyaXN0aWMKcSEpgXEifXEjKFgEAAAAYmV0YXEkSwRLDYZxJVgBAAAA"
    "ZXEmSwRLAYZxJ3ViWAcAAABwdWlzZXV4cShjY3VzcGZvcmdlLmludmFyaWFudHMKUGFpckxpc3QKcSkp"
    "gXEqfXErKFgEAAAAa2luZHEsaChoB0sNSwSGcS2FcS51YlgHAAAAemFyaXNraXEvaCkpgXEwfXExKGgs"
    "aC9oB0sESw2GcTKFcTN1YlgJAAAAc2VtaWdyb3VwcTRjY3VzcGZvcmdlLmludmFyaWFudHMKU2VtaWdy"
    "b3VwCnE1KYFxNn1xNyhYCgAAAGdlbmVyYXRvcnNxOEsESw2GcTlYBwAAAF9sZXZlbHNxOihLDUsBSwRL"
    "AXRxO4VxPFgJAAAAY29uZHVjdG9ycT1LJHViWAEAAABNcT5LEFgBAAAASXE/SzR1YmNjdXNwZm9yZ2Uu"
    "ZmFtaWxpZXMKRmFtaWx5U3BlYwpxQCmBcUF9cUIoWAIAAABpZHFDWAEAAABBcURYBgAAAHBhcmFtc3FF"
    "SwJLA0sCh3FGdWJjY3VzcGZvcmdlLmRpdmlzb3IKQ2hhaW4KcUcpgXFIfXFJWAcAAABlbnRyaWVzcUpL"
    "AksDhnFLc2JjY3VzcGZvcmdlLnZlcmlmeQpGaWJyYXRpb25MZWRnZXIKcUwpgXFNfXFOKFgBAAAAaHFP"
    "SwJYAgAAAG51cVBLAFgGAAAAc2lnbWFzcVFLAUsChnFSWAQAAABjaGlzcVNLAEsBhnFUdWJ0cVUu"
)


def test_pickles_of_the_dataclass_versions_load():
    record, spec, chain, ledger = pickle.loads(base64.b64decode(DATACLASS_PICKLE))
    fresh = cusp_record(parse_hn("13/4"))
    assert record == fresh and hash(record) == hash(fresh)
    assert record.semigroup.conductor == fresh.semigroup.conductor
    assert record.hn.validation == fresh.hn.validation
    assert (spec, chain, ledger) == (
        FamilySpec("A", (2, 3, 2)), Chain((2, 3)), FibrationLedger(2, 0, (1, 2), (0, 1)))
    with pytest.raises(AttributeError):
        record.M = 0
