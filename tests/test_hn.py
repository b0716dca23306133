import re

import pytest
from hypothesis import given
from math import gcd

from cuspforge.errors import DegenerateRemainder, NotReducible
from cuspforge.hn import (
    RAW,
    STANDARD,
    HNPair,
    HNSequence,
    expand_low_p,
    format_hn,
    parse_hn,
    require_valid,
    standardize,
    validate,
)
from support import random_standard_hn, raw_hn_sequences, standard_hn_sequences


def seq(text, flavor=RAW):
    return parse_hn(text, flavor)


class TestParsing:
    def test_round_trip(self):
        for text in ("6/4,2/3", "7/3", "12/8,4/6,2/1"):
            assert format_hn(parse_hn(text)) == text

    def test_whitespace_tolerated(self):
        assert format_hn(parse_hn(" 6/4 , 2/3 ")) == "6/4,2/3"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_hn("   ")

    def test_bad_token_named(self):
        with pytest.raises(ValueError, match="'6/'"):
            parse_hn("6/,2/3")
        with pytest.raises(ValueError, match="'x'"):
            parse_hn("x")

    @pytest.mark.parametrize("token", ["\u0663/\u0662", "3/\u0662", "+3/2", "1_3/4", "\uff13/2", "3/2/1"])
    def test_entries_are_ascii_decimal_digits(self, token):
        with pytest.raises(ValueError, match=re.escape(f"invalid HN pair token {token!r}")):
            parse_hn(token)

    def test_pair_entries_positive(self):
        with pytest.raises(ValueError):
            HNPair(0, 2)
        with pytest.raises(ValueError):
            parse_hn("6/0")

    def test_json_round_trip(self):
        s = seq("6/4,2/3", STANDARD)
        obj = s.to_json_obj()
        assert obj == [["6", "4"], ["2", "3"]]
        back = HNSequence.from_json_obj(obj, STANDARD)
        assert back == s

    @given(standard_hn_sequences())
    def test_json_round_trip_of_every_standard_sequence(self, s):
        # `from_json_obj` reads back exactly what `to_json_obj` writes
        assert HNSequence.from_json_obj(s.to_json_obj(), STANDARD) == s

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            HNSequence((HNPair(3, 2),), "fancy")

    def test_bool_entries_rejected(self):
        # bool is an int subclass: True/2 once printed as "True/2"
        with pytest.raises(TypeError, match="bool"):
            HNPair(True, 2)
        with pytest.raises(TypeError, match="bool"):
            HNSequence((HNPair(5, True),))

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError, match="float"):
            HNPair(5.0, 2)


class TestValidation:
    def test_standard_ok(self):
        assert validate(seq("6/4,2/3", STANDARD)).ok
        assert validate(seq("7/3", STANDARD)).ok
        assert validate(seq("12/8,4/6,2/1", STANDARD)).ok

    def test_report_kept_on_the_sequence(self):
        for s in (seq("6/4,2/3", STANDARD), seq("6/4,3/2", RAW)):
            assert validate(s) is validate(s)
        # an equal but distinct sequence computes its own, equal report
        assert validate(seq("6/4,3/2")) == validate(seq("6/4,3/2"))

    def test_axioms_reported(self):
        rep = validate(HNSequence((HNPair(4, 4), HNPair(4, 2)), STANDARD))
        axioms = {v.axiom for v in rep.violations}
        assert axioms == {"terminal_coprime", "head_nondivisible",
                          "equal_pair", "strict_decrease"}
        assert not rep.ok

    def test_violation_indices_one_based(self):
        rep = validate(HNSequence((HNPair(6, 4), HNPair(2, 4)), STANDARD))
        assert any(v.axiom == "terminal_coprime" and v.index == 2
                   for v in rep.violations)

    def test_raw_flavor_checks_chain_only(self):
        # p1 > c1 and equal pairs are fine raw; a broken gcd chain is not
        assert validate(seq("4/9,1/1", RAW)).ok
        rep = validate(seq("6/4,3/2", RAW))
        assert any(v.axiom == "gcd_chain" for v in rep.violations)

    def test_require_valid_raises(self):
        with pytest.raises(ValueError, match="head_nondivisible|divides"):
            require_valid(seq("4/2", STANDARD))

    @given(standard_hn_sequences(max_h=4))
    def test_generator_produces_valid(self, s):
        assert validate(s).ok

    def test_passing_summary(self):
        assert validate(seq("6/4,2/3", STANDARD)).summary() == "pass"


class TestSequence:
    def test_needs_a_pair(self):
        with pytest.raises(ValueError, match="at least one pair"):
            HNSequence(())

    def test_pairs_must_be_hn_pairs(self):
        with pytest.raises(TypeError, match="HNPair instances"):
            HNSequence((HNPair(3, 2), (2, 1)))

    def test_to_text(self):
        assert seq("6/4, 2/3").to_text() == "6/4,2/3"


class TestStandardize:
    @pytest.mark.parametrize("raw,std", [
        ("6/4,2/3", "6/4,2/3"),
        ("6/4,2/2,2/1", "6/4,2/3"),
        ("8/6,2/2,2/1", "8/6,2/3"),
        ("12/6,6/3,3/1", "15/6,3/1"),
        ("6/3,3/3,3/1", "10/3"),
        ("10/5,5/3", "13/5"),
        ("12/3,3/1", "13/3"),
        ("12/4,4/1", "13/4"),
        ("21/3,3/1", "22/3"),
        ("42/6,6/1", "43/6"),
        ("4/4,4/4,4/1", "9/4"),
        ("12/8,4/6,2/1", "12/8,4/6,2/1"),
    ])
    def test_fixtures(self, raw, std):
        got = standardize(seq(raw))
        assert format_hn(got) == std
        assert got.flavor == STANDARD
        assert validate(got).ok

    @pytest.mark.parametrize("text", ["2/1", "1/1", "1/2", "3/2,1/5"])
    def test_not_reducible(self, text):
        with pytest.raises(NotReducible):
            standardize(seq(text))

    @given(standard_hn_sequences(max_h=4))
    def test_idempotent_on_standard(self, s):
        assert standardize(s) == s


class TestExpandLowP:
    def test_splits_low_pair(self):
        assert format_hn(expand_low_p(seq("4/9"))) == "4/4,4/4,4/1"
        assert expand_low_p(seq("4/9")).flavor == RAW

    def test_unit_multiplicity(self):
        assert format_hn(expand_low_p(seq("1/3"))) == "1/1,1/1,1/1"

    def test_high_p_pairs_untouched(self):
        assert format_hn(expand_low_p(seq("6/4,2/3"))) == "6/4,2/2,2/1"

    def test_degenerate_remainder(self):
        with pytest.raises(DegenerateRemainder):
            expand_low_p(seq("4/8,4/1"))

    def test_invalid_raw_rejected(self):
        with pytest.raises(ValueError):
            expand_low_p(seq("4/8"))

    @given(raw_hn_sequences(max_h=3))
    def test_expand_then_standardize_is_standardize(self, s):
        # expand_low_p exists to rescue p > c pairs, so it may succeed where
        # direct standardization cannot; on common ground they must agree
        try:
            want = standardize(s)
        except NotReducible:
            return
        try:
            expanded = expand_low_p(s)
        except DegenerateRemainder:
            return
        assert standardize(expanded) == want


def _chain_valid_raws(max_entry, max_h):
    """Every raw sequence with entries <= max_entry whose gcd chain holds."""
    out = []

    def extend(pairs, c):
        for p in range(1, max_entry + 1):
            nxt = pairs + [(c, p)]
            if gcd(c, p) == 1:
                out.append(tuple(nxt))
            if len(nxt) < max_h:
                extend(nxt, gcd(c, p))

    for c in range(1, max_entry + 1):
        extend([], c)
    return out


def _moves(pairs):
    """All single applications of the two rewrite rules."""
    found = []
    if len(pairs) >= 2 and pairs[0][0] % pairs[0][1] == 0 \
            and pairs[1][0] == pairs[0][1]:
        found.append(((pairs[0][0] + pairs[1][1], pairs[0][1]),) + pairs[2:])
    for j in range(1, len(pairs) - 1):
        (a, b), (c, d) = pairs[j], pairs[j + 1]
        if a == b and c == a:
            found.append(pairs[:j] + ((a, a + d),) + pairs[j + 2:])
    return found


def test_rewriting_is_confluent_and_matches_standardize():
    """BFS over every rewrite order agrees with the deterministic sweep.

    Unrestricted application order can dead-end in an invalid normal form
    (merging left-first strands an oversized tail), and degenerate starts
    reach several; but no start ever reaches two distinct VALID normal
    forms.  The sweep must return the valid normal form exactly when one
    exists and refuse otherwise.
    """
    for start in _chain_valid_raws(max_entry=6, max_h=4):
        seen = {start}
        frontier = [start]
        normal = set()
        while frontier:
            nxt = []
            for cur in frontier:
                steps = _moves(cur)
                if not steps:
                    normal.add(cur)
                for other in steps:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        valids = {
            form for form in normal
            if validate(HNSequence(tuple(HNPair(c, p) for c, p in form),
                                   STANDARD)).ok
        }
        assert len(valids) <= 1, (start, valids)
        raw = HNSequence(tuple(HNPair(c, p) for c, p in start), RAW)
        if valids:
            (form,) = valids
            got = standardize(raw)
            assert tuple((pr.c, pr.p) for pr in got.pairs) == form
        else:
            with pytest.raises(NotReducible):
                standardize(raw)


def test_random_generator_entry_cap(rng):
    for _ in range(200):
        s = random_standard_hn(rng, max_h=4, cap=10_000)
        assert all(max(pr.c, pr.p) <= 10_000 for pr in s.pairs)
