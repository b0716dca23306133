"""Trusted constructors: internal producers skip validation, and lose nothing by it.

Public constructors and parsers validate; objects the package builds from
data it has already validated go through `_trusted`.  A trusted object must
be indistinguishable from its publicly constructed twin, and validation
must still happen once, where the data enters.
"""

import pickle

import pytest
from hypothesis import assume, given, strategies as st

import cuspforge.families as families
import cuspforge.hn as hn
import cuspforge.verify as verify
from cuspforge.divisor import Chain, WeightedTree, resolution_graph
from cuspforge.errors import NotReducible
from cuspforge.families import CurveRecord, FamilySpec, generate
from cuspforge.hn import RAW, STANDARD, HNPair, HNSequence, parse_hn, standardize, validate
from cuspforge.invariants import (
    FULL,
    PUISEUX,
    REDUCED,
    MultiplicitySequence,
    PairList,
    PuiseuxCharacteristic,
    Semigroup,
    hn_to_multiplicity,
)
from cuspforge.verify import FibrationLedger, full_audit
from support import chains, raw_hn_sequences, standard_hn_sequences

any_hn = st.one_of(standard_hn_sequences(), raw_hn_sequences())


def assert_twins(trusted, public):
    assert trusted == public and public == trusted
    assert hash(trusted) == hash(public)
    back = pickle.loads(pickle.dumps(trusted))
    assert back == public and hash(back) == hash(public)


class TestTwins:
    @given(any_hn, st.sampled_from([STANDARD, RAW]))
    def test_hn_sequence(self, seq, flavor):
        # either flavor, so reports that fail are compared too
        trusted = HNSequence._trusted(seq.pairs, flavor)
        public = HNSequence(seq.pairs, flavor)
        assert_twins(trusted, public)
        assert validate(trusted) == validate(public)
        assert validate(pickle.loads(pickle.dumps(trusted))) == validate(public)

    @given(any_hn)
    def test_multiplicity_sequences_of_a_cusp(self, seq):
        # the trusted runs pass the public constructor, and match an
        # independent merge of the expanded entries
        full = hn_to_multiplicity(seq, FULL)
        reduced = hn_to_multiplicity(seq, REDUCED)
        assert_twins(full, MultiplicitySequence(full.runs, FULL))
        assert_twins(full, MultiplicitySequence.from_entries(full.entries(), FULL))
        assert_twins(reduced, MultiplicitySequence(reduced.runs, REDUCED))
        assert_twins(full.reduced(), reduced)
        try:
            std = standardize(seq)
        except NotReducible:
            return
        # on the standard form, the trailing 1s are as many as the last
        # entry above 1, so `full()` restores them
        mult = MultiplicitySequence(hn_to_multiplicity(std, FULL).runs, FULL)
        assert_twins(mult.reduced().full(), mult)
        assert_twins(resolution_graph(std).mult, mult)

    @given(chains(min_size=0, max_size=10, low=-3, high=9))
    def test_chain(self, chain):
        trusted = Chain._trusted(chain.entries)
        assert_twins(trusted, Chain(list(chain.entries)))
        assert_twins(trusted.reverse(), Chain(chain.entries[::-1]))


class TestStandardize:
    @given(raw_hn_sequences())
    def test_declared_standard_but_not_standard(self, raw):
        # a sequence declared standard that fails the standard axioms gets
        # the raw check and the rewrite, exactly like its raw twin
        declared = HNSequence(raw.pairs, STANDARD)
        assume(not validate(declared).ok)

        def outcome(seq):
            try:
                return standardize(seq)
            except NotReducible as exc:
                return str(exc)

        assert outcome(declared) == outcome(raw)

    @given(standard_hn_sequences())
    def test_valid_standard_comes_back_as_itself(self, std):
        assert standardize(std) is std
        assert standardize(HNSequence(std.pairs, RAW)) == std

    @given(any_hn, st.sampled_from([STANDARD, RAW]), st.integers(0, 3), st.integers(1, 5))
    def test_raw_invalid_input_raises(self, seq, flavor, position, bump):
        # raise one c past the gcd chain, or make the last pair share a factor
        pairs = list(seq.pairs)
        j = position % len(pairs)
        if j:
            pairs[j] = HNPair(pairs[j].c + bump, pairs[j].p)
        else:
            last = pairs[-1]
            pairs[-1] = HNPair(last.c * (bump + 1), last.p * (bump + 1))
        bad = HNSequence(tuple(pairs), flavor)
        assume(not validate(HNSequence(bad.pairs, RAW)).ok)
        with pytest.raises(ValueError, match="invalid raw HN sequence"):
            standardize(bad)
        with pytest.raises(ValueError, match=f"invalid {flavor} HN sequence"):
            hn_to_multiplicity(bad)

    def test_with_flavor_keeps_the_report(self):
        seq = HNSequence((HNPair(6, 4), HNPair(2, 3)), RAW)
        report = validate(seq)
        assert seq.with_flavor(RAW) is seq
        assert validate(seq.with_flavor(RAW)) is report
        assert seq.with_flavor(STANDARD) == HNSequence(seq.pairs, STANDARD)


class TestValidationCount:
    def test_per_cusp_counts_in_full_audit(self, monkeypatch):
        # one family instance, audited end to end: each count is per cusp,
        # so a later change that re-adds a validation fails here
        counts = dict(axioms=0, hn=0, mult=0, standardize=0)

        def counting(key, real):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(hn, "_check_axioms", counting("axioms", hn._check_axioms))
        monkeypatch.setattr(HNSequence, "__init__", counting("hn", HNSequence.__init__))
        monkeypatch.setattr(MultiplicitySequence, "__init__",
                            counting("mult", MultiplicitySequence.__init__))
        std = counting("standardize", standardize)
        monkeypatch.setattr(verify, "standardize", std)
        monkeypatch.setattr(families, "standardize", std)

        spec = FamilySpec("A", (2, 3, 2))
        report = full_audit(generate(spec))
        assert report.ok
        cusps = len(families._FAMILIES["A"].cusps(*spec.params))
        assert cusps == 2
        # axioms: the raw cusp, its standard form in `generate` and again in
        # raw_standardizes_to, and the round trip's candidate; the idempotence
        # check gets the standard form back with its report
        assert {k: v / cusps for k, v in counts.items()} == dict(
            axioms=4, hn=1, mult=1, standardize=3)


# Each public constructor and the place of one entry in it: with x = 2 the
# call succeeds, and a non-integer x must raise TypeError, not truncate.
INTEGER_SITES = {
    "MultiplicitySequence value": lambda x: MultiplicitySequence(((x, 1),)),
    "MultiplicitySequence count": lambda x: MultiplicitySequence(((3, x),)),
    "MultiplicitySequence.from_runs value": lambda x: MultiplicitySequence.from_runs([(x, 1)]),
    "MultiplicitySequence.from_runs count": lambda x: MultiplicitySequence.from_runs([(3, x)]),
    "MultiplicitySequence.from_entries": lambda x: MultiplicitySequence.from_entries([3, x]),
    "WeightedTree weight": lambda x: WeightedTree((-x, -2), ((0, 1),)),
    "WeightedTree edge": lambda x: WeightedTree((-1, -2, -3), ((0, 1), (1, x))),
    "FibrationLedger h": lambda x: FibrationLedger(x, 0, (2, 1)),
    "FibrationLedger nu": lambda x: FibrationLedger(1, x - 2, (1,)),
    "FibrationLedger sigma": lambda x: FibrationLedger(2, 0, (x - 1,)),
    "FibrationLedger chi": lambda x: FibrationLedger(2, 0, (1,), (x,)),
    "PuiseuxCharacteristic": lambda x: PuiseuxCharacteristic((x, 3)),
    "Semigroup": lambda x: Semigroup((x, 3)),
    "PairList": lambda x: PairList(PUISEUX, ((3, x),)),
    "FamilySpec": lambda x: FamilySpec("G", (x,)),
    "CurveRecord.from_cusps": lambda x: CurveRecord.from_cusps(x + 2, 1, [parse_hn("3/2")]),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("x", [2.5, 2.0])
def test_constructors_refuse_non_integers(site, x):
    INTEGER_SITES[site](2)
    with pytest.raises(TypeError):
        INTEGER_SITES[site](x)


# entries that are no integer, and items that are no two-entry list or tuple
JSON_WRONG_TYPE = [[[6.9, 4.2], [2, 3]], [[True, 1]], ["32"], [b"32"], [{"3": 0, "2": 1}],
                   [[3, 2, 1]], [(3,)]]
# strings other than ASCII decimal digits, most of which `int` would read
JSON_NOT_DIGITS = [[["1_0", "3"]], [[" 7", "2"]], [["+7", "2"]], [["7", "\u0663"]], [["", "2"]]]


@pytest.mark.parametrize("obj", JSON_WRONG_TYPE + JSON_NOT_DIGITS)
def test_hn_from_json_obj_refuses_non_integers(obj):
    # ASCII decimal strings are parsed; any other entry reaches HNPair as it is
    assert HNSequence.from_json_obj([["6", "4"], (2, 3)]) == parse_hn("6/4,2/3")
    with pytest.raises(ValueError if obj in JSON_NOT_DIGITS else TypeError):
        HNSequence.from_json_obj(obj)
