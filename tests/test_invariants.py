import re
import time

import pytest
from hypothesis import given

from cuspforge.errors import NotRealizable
from cuspforge.hn import (
    RAW,
    STANDARD,
    format_hn,
    parse_hn,
    standardize,
)
from cuspforge.invariants import (
    FULL,
    PUISEUX,
    REDUCED,
    ZARISKI,
    MultiplicitySequence,
    PairList,
    PuiseuxCharacteristic,
    Semigroup,
    alexander_polynomial,
    char_to_multiplicity,
    char_to_puiseux_pairs,
    compute_M_I,
    cusp_record,
    hn_from_zariski,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    multiplicity_to_standard_hn,
    parse_multiplicity,
    parse_puiseux_char,
    puiseux_char_to_standard_hn,
    puiseux_pairs_to_char,
    semigroup_of,
    zariski_from_hn,
)
from support import (
    alexander_from_gaps_oracle,
    apery_gaps_oracle,
    char_to_multiplicity_oracle,
    puiseux_characteristics,
    semigroup_membership_oracle,
    sieve_gaps_oracle,
    standard_hn_sequences,
)


def std(text):
    return standardize(parse_hn(text))


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


BICUSPIDAL = {
    # the two cusps of the degree-7 rational bicuspidal fixture
    "6/4,2/3": dict(mult=(4, 2, 2, 2), char=(4, 6, 9),
                    puiseux=((3, 2), (9, 2)), zariski=((2, 3), (2, 3)),
                    semigroup=(4, 6, 15), gaps=(1, 2, 3, 5, 7, 9, 11, 13, 17),
                    M=12, I=30),
    "7/3": dict(mult=(3, 3), char=(3, 7),
                puiseux=((7, 3),), zariski=((3, 7),),
                semigroup=(3, 7), gaps=(1, 2, 4, 5, 8, 11),
                M=9, I=21),
}


class TestExampleTable:
    @pytest.mark.parametrize("text", sorted(BICUSPIDAL))
    def test_all_rows(self, text):
        want = BICUSPIDAL[text]
        s = std(text)
        assert hn_to_multiplicity(s).entries() == want["mult"]
        assert hn_to_puiseux_char(s).beta == want["char"]
        assert char_to_puiseux_pairs(hn_to_puiseux_char(s)).pairs == want["puiseux"]
        assert zariski_from_hn(s).pairs == want["zariski"]
        sg = semigroup_of(hn_to_puiseux_char(s))
        assert sg.generators == want["semigroup"]
        assert tuple(sorted(sg.gaps)) == want["gaps"]
        assert compute_M_I(s) == (want["M"], want["I"])

    def test_record_json_schema(self):
        obj = cusp_record(std("7/3")).to_json_obj()
        assert obj == {
            "hn": [["7", "3"]],
            "mult_reduced": ["3", "3"],
            "puiseux_char": ["3", "7"],
            "puiseux_pairs": [["7", "3"]],
            "zariski_pairs": [["3", "7"]],
            "semigroup_generators": ["3", "7"],
            "gaps": ["1", "2", "4", "5", "8", "11"],
            "alexander_coeffs": ["1", "-1", "0", "1", "-1", "0", "1", "0",
                                 "-1", "1", "0", "-1", "1"],
            "M": "9",
            "I": "21",
        }


class TestMultiplicity:
    def test_forms(self):
        red = MultiplicitySequence.from_entries((4, 2, 2, 2))
        assert red.form == REDUCED
        assert red.full().entries() == (4, 2, 2, 2, 1, 1)
        assert red.full().reduced() == red
        assert red.total() == 10

    def test_full_needs_trailing_ones(self):
        with pytest.raises(ValueError):
            MultiplicitySequence.from_entries((4, 2), form=FULL)

    def test_reduced_forbids_trailing_ones(self):
        with pytest.raises(ValueError):
            MultiplicitySequence.from_entries((4, 2, 1))

    def test_smooth_point_has_no_full_form(self):
        with pytest.raises(NotRealizable):
            MultiplicitySequence.from_entries(()).full()

    def test_parse(self):
        m = parse_multiplicity("4,2,2,2")
        assert m.entries() == (4, 2, 2, 2)
        with pytest.raises(ValueError, match="'two'"):
            parse_multiplicity("4,two")

    @pytest.mark.parametrize("token", ["\u00b2", "\u0664", "+4", "1_0", "\uff14"])
    def test_parse_refuses_all_but_ascii_digits(self, token):
        with pytest.raises(ValueError, match=re.escape(f"invalid multiplicity entry {token!r}")):
            parse_multiplicity(token + ",1")

    @pytest.mark.parametrize("runs,form,msg", [
        (((2, 1),), "half", "unknown multiplicity form 'half'"),
        (((2, 0),), REDUCED, r"bad multiplicity run \(2,0\)"),
        (((0, 1),), REDUCED, r"bad multiplicity run \(0,1\)"),
        (((2, 1), (3, 1)), REDUCED, "strictly decreasing"),
        (((2, 1), (2, 1)), REDUCED, "strictly decreasing"),
    ])
    def test_constructor_refuses(self, runs, form, msg):
        with pytest.raises(ValueError, match=msg):
            MultiplicitySequence(runs, form)

    def test_smooth_point_full_sequence_not_realizable(self):
        with pytest.raises(NotRealizable, match="smooth point"):
            multiplicity_to_standard_hn(MultiplicitySequence(((1, 3),), FULL))

    def test_gcd_chain_without_interior_run(self):
        # 6,4,1,1,1,1: the head pair 10/6 has gcd 2, which no run holds
        with pytest.raises(NotRealizable, match="gcd chain hits 2"):
            multiplicity_to_standard_hn(parse_multiplicity("6,4"))

    def test_runs_merge(self):
        m = MultiplicitySequence.from_runs(((4, 1), (2, 2), (2, 1)))
        assert m.runs == ((4, 1), (2, 3))

    def test_three_pair_round_trip(self):
        s = std("12/8,4/6,2/1")
        full = hn_to_multiplicity(s, FULL)
        assert full.entries() == (8, 4, 4, 4, 2, 2, 1, 1)
        assert format_hn(multiplicity_to_standard_hn(full)) == "12/8,4/6,2/1"
        red = hn_to_multiplicity(s)
        assert format_hn(multiplicity_to_standard_hn(red)) == "12/8,4/6,2/1"

    @pytest.mark.parametrize("entries", [(4, 2), (5, 3), (6, 6, 2)])
    def test_not_realizable(self, entries):
        with pytest.raises(NotRealizable):
            multiplicity_to_standard_hn(MultiplicitySequence.from_entries(entries))

    def test_trailing_one_count_on_standard(self):
        # full form of a standard sequence ends in exactly (last entry > 1) ones
        for text in ("6/4,2/3", "7/3", "13/5", "12/8,4/6,2/1"):
            entries = hn_to_multiplicity(std(text), FULL).entries()
            ones = len(entries) - len([e for e in entries if e > 1])
            assert ones == entries[len(entries) - ones - 1] > 1

    @given(standard_hn_sequences())
    def test_round_trip(self, s):
        assert multiplicity_to_standard_hn(hn_to_multiplicity(s, FULL)) == s


class TestPuiseuxCharacteristic:
    def test_gcd_tower(self):
        c = parse_puiseux_char("4;6,9")
        assert c.beta == (4, 6, 9)
        assert c.e == (4, 2, 1)
        assert c.g == 2
        assert c.to_text() == "4;6,9"

    @pytest.mark.parametrize("text,msg", [
        ("4;6", "e_g"),
        ("4;6,8", "divides"),
        ("2;4", "divides"),
        ("1;3", ">= 2"),
        ("4;6,9,11", "divides"),
        ("4;9,6", "increase"),
        ("4,6,9", "missing ';' after beta0"),
        ("4;6,x", "invalid characteristic exponent 'x'"),
        ("4;", "invalid characteristic exponent ''"),
        ("\u0664;\u0666,\u0669", "invalid characteristic exponent '\u0664'"),
        ("4;6,+9", r"invalid characteristic exponent '\+9'"),
        ("4;6,9_1", "invalid characteristic exponent '9_1'"),
    ])
    def test_invalid(self, text, msg):
        with pytest.raises(ValueError, match=msg):
            parse_puiseux_char(text)

    def test_needs_beta1(self):
        with pytest.raises(ValueError, match="needs beta0 and at least beta1"):
            PuiseuxCharacteristic((5,))

    def test_str(self):
        assert str(parse_puiseux_char("4; 6, 9")) == "4;6,9"

    def test_round_trip_fixture(self):
        c = parse_puiseux_char("4;6,9")
        assert format_hn(puiseux_char_to_standard_hn(c)) == "6/4,2/3"

    def test_rejects_raw_flavor(self):
        with pytest.raises(ValueError, match="standard"):
            hn_to_puiseux_char(parse_hn("6/4,2/3"))

    @given(standard_hn_sequences())
    def test_round_trip(self, s):
        c = hn_to_puiseux_char(s)
        assert puiseux_char_to_standard_hn(c) == s
        # genus equals the number of pairs; the e-chain starts at the head
        # multiplicity and then runs down the later c column
        assert c.g == s.h
        assert c.e == (s.pairs[0].p,) + tuple(pr.c for pr in s.pairs[1:]) + (1,)


class TestPairLists:
    @pytest.mark.parametrize("char,pairs", [
        ("4;6,9", ((3, 2), (9, 2))),
        ("3;7", ((7, 3),)),
        ("2;3", ((3, 2),)),
    ])
    def test_puiseux_pairs(self, char, pairs):
        got = char_to_puiseux_pairs(parse_puiseux_char(char))
        assert got.kind == PUISEUX
        assert got.pairs == pairs
        assert puiseux_pairs_to_char(got).to_text() == char

    def test_kind_checked(self):
        z = PairList(ZARISKI, ((2, 3),))
        with pytest.raises(ValueError, match="zariski"):
            puiseux_pairs_to_char(z)

    @pytest.mark.parametrize("hn,pairs", [
        ("6/4,2/3", ((2, 3), (2, 3))),
        ("7/3", ((3, 7),)),
        ("10/6,2/1", ((3, 5), (2, 1))),
    ])
    def test_zariski_pairs(self, hn, pairs):
        got = zariski_from_hn(std(hn))
        assert got.kind == ZARISKI
        assert got.pairs == pairs
        assert format_hn(hn_from_zariski(got)) == hn

    def test_pair_text(self):
        assert PairList(ZARISKI, ((2, 3), (2, 3))).to_text() == "(2,3),(2,3)"
        assert str(PairList(ZARISKI, ((2, 3), (2, 3)))) == "(2,3),(2,3)"
        assert str(PairList(PUISEUX, ((3, 2), (9, 2)))) == "(3,2),(9,2)"

    @pytest.mark.parametrize("kind,pairs,msg", [
        ("newton", ((3, 2),), "unknown pair-list kind 'newton'"),
        (PUISEUX, (), "must be non-empty"),
        (PUISEUX, ((3, 1),), r"Puiseux pair \(3,1\) needs n >= 2"),
        # accepted once, this reached PuiseuxCharacteristic as (4, 6, -7)
        (PUISEUX, ((3, 2), (-7, 2)), r"Puiseux pair \(-7,2\) needs m >= 1"),
        (PUISEUX, ((3, 2), (0, 2)), r"Puiseux pair \(0,2\) needs m >= 1"),
        (PUISEUX, ((6, 4),), r"Puiseux pair \(6,4\) must be coprime"),
        (PUISEUX, ((2, 3),), r"first Puiseux pair \(2, 3\) needs m1 > n1"),
        (ZARISKI, ((1, 3),), r"Zariski pair \(1,3\) needs b >= 2"),
        # accepted once, this reached HNPair as (2/-1)
        (ZARISKI, ((2, 3), (2, -1)), r"Zariski pair \(2,-1\) needs a >= 1"),
        (ZARISKI, ((2, 3), (2, 0)), r"Zariski pair \(2,0\) needs a >= 1"),
        (ZARISKI, ((2, 4),), r"Zariski pair \(2,4\) must be coprime"),
        (ZARISKI, ((3, 2),), r"first Zariski pair \(3, 2\) needs a1 > b1"),
    ])
    def test_constructor_refuses(self, kind, pairs, msg):
        with pytest.raises(ValueError, match=msg):
            PairList(kind, pairs)

    def test_zariski_from_raw_refused(self):
        with pytest.raises(ValueError, match="read off the standard form"):
            zariski_from_hn(parse_hn("6/4,2/3"))

    def test_hn_from_puiseux_pairs_refused(self):
        with pytest.raises(ValueError, match="expected zariski pairs, got puiseux"):
            hn_from_zariski(PairList(PUISEUX, ((3, 2),)))

    @given(standard_hn_sequences())
    def test_zariski_round_trip(self, s):
        assert hn_from_zariski(zariski_from_hn(s)) == s

    @given(standard_hn_sequences())
    def test_puiseux_pair_round_trip(self, s):
        c = hn_to_puiseux_char(s)
        assert puiseux_pairs_to_char(char_to_puiseux_pairs(c)) == c


class TestCharToMultiplicity:
    @pytest.mark.parametrize("char,entries", [
        ("4;6,9", (4, 2, 2, 2, 1, 1)),
        ("3;7", (3, 3, 1, 1, 1)),
        ("2;3", (2, 1, 1)),
        ("2;5", (2, 2, 1, 1)),
    ])
    def test_fixtures(self, char, entries):
        m = char_to_multiplicity(parse_puiseux_char(char))
        assert m.form == FULL
        assert m.entries() == entries

    @given(standard_hn_sequences())
    def test_agrees_with_hn_route(self, s):
        via_char = char_to_multiplicity(hn_to_puiseux_char(s))
        assert via_char == hn_to_multiplicity(s, FULL)

    @given(puiseux_characteristics())
    def test_matches_nested_euclid_oracle(self, char):
        assert char_to_multiplicity(char) == char_to_multiplicity_oracle(char)


class TestSemigroup:
    @pytest.mark.parametrize("char,gens,gaps", [
        ("4;6,9", (4, 6, 15), (1, 2, 3, 5, 7, 9, 11, 13, 17)),
        ("3;7", (3, 7), (1, 2, 4, 5, 8, 11)),
        ("2;3", (2, 3), (1,)),
    ])
    def test_fixtures(self, char, gens, gaps):
        sg = semigroup_of(parse_puiseux_char(char))
        assert sg.generators == gens
        assert tuple(sorted(sg.gaps)) == gaps
        assert sg.conductor == max(gaps) + 1

    def test_membership(self):
        sg = Semigroup((4, 6, 15))
        assert 0 in sg and 10 in sg and 15 in sg
        assert 17 not in sg
        assert all(n in sg for n in range(18, 60))

    @staticmethod
    def assert_table_readings_match_oracles(sg):
        # every reading of the membership table against both gap oracles
        gaps = sieve_gaps_oracle(sg.generators)
        assert apery_gaps_oracle(sg.generators) == gaps
        conductor = max(gaps) + 1 if gaps else 0
        assert sg.conductor == conductor
        assert ",".join(sg._gap_texts(",")) == ",".join(map(str, sorted(gaps)))
        assert ",".join(sg._alexander_texts(",")) == ",".join(
            map(str, alexander_from_gaps_oracle(gaps, conductor)))
        assert sg.gaps == gaps
        assert isinstance(sg.gaps, frozenset)
        assert sg.gap_count == len(gaps)
        assert alexander_polynomial(sg) == alexander_from_gaps_oracle(gaps, conductor)

    @given(standard_hn_sequences(cap=200))
    def test_gaps_match_recursive_oracle(self, s):
        sg = semigroup_of(hn_to_puiseux_char(s))
        self.assert_table_readings_match_oracles(sg)
        member = semigroup_membership_oracle(sg.generators)
        for n in range(-1, sg.conductor + sg.generators[0]):
            assert (n in sg) == member(n)
        m, i = compute_M_I(s)
        assert sg.gap_count == (i - m) // 2
        # Delta(t) = (1 - t) * (sum of t^n over the semigroup), cut at t^c
        want = tuple(int(member(n)) - int(member(n - 1)) for n in range(sg.conductor + 1))
        assert alexander_polynomial(sg) == want

    @pytest.mark.parametrize("gens,conductor", [
        ((1,), 0),
        ((2, 3), 2),
        ((2, 10001), 10000),  # the semigroup of 10001/2
    ])
    def test_table_fixtures(self, gens, conductor):
        sg = Semigroup(gens)
        assert sg.conductor == conductor
        self.assert_table_readings_match_oracles(sg)
        assert isinstance(sg._members, bytes) and len(sg._members) == conductor + 1

    def test_scalar_readings_build_no_table(self):
        # the hostile cusp stays in the milliseconds: no 10**8-byte table
        start = time.process_time()
        sg = cusp_record(parse_hn("100000001/2")).semigroup
        assert (sg.conductor, sg.gap_count) == (10**8, 5 * 10**7)
        assert sg.conductor - 1 not in sg and sg.conductor in sg
        assert time.process_time() - start < 0.05
        assert "_members" not in vars(sg)

    @pytest.mark.parametrize("gens", [(4, 6, 15), (4, 6, 9), (2, 3), (3, 7), (1,)])
    def test_telescopic_generators_accepted(self, gens):
        assert Semigroup(gens).generators == gens

    @pytest.mark.parametrize("gens,msg", [
        ((3, 4, 5), "e2 = e1 = 1"),
        ((10, 14, 23), r"2\*23 is not in <10,14>"),
        ((4, 6), "gcd 2"),
        ((0, 1), "positive"),
    ])
    def test_non_telescopic_generators_rejected(self, gens, msg):
        with pytest.raises(ValueError, match=msg):
            Semigroup(gens)

    # The regression cases below never read the gap set: their conductors
    # are far too large to list.

    def test_huge_single_pair(self):
        rec = cusp_record(parse_hn(f"{10**30 + 1}/2"))
        sg = rec.semigroup
        assert sg.conductor == 10**30
        assert (rec.M, rec.I) == (10**30 + 2, 2 * (10**30 + 1))
        assert sg.gap_count == (rec.I - rec.M) // 2
        assert sg.conductor - 1 not in sg
        assert sg.conductor in sg

    def test_or1_cusp_k6(self):
        # the OR1 cusp of the degree F(26) curve, raw F(28)/F(24),3/1
        d = fibonacci(26)
        rec = cusp_record(parse_hn(f"{fibonacci(28)}/{fibonacci(24)},3/1"))
        sg = rec.semigroup
        assert sg.conductor == (d - 1) * (d - 2) == rec.I - rec.M
        assert (rec.M, rec.I) == (3 * d, 2 + d * d)
        assert sg.conductor - 1 not in sg
        assert sg.conductor in sg


class TestAlexander:
    def test_trefoil(self):
        assert alexander_polynomial(Semigroup((2, 3))) == (1, -1, 1)

    def test_three_seven(self):
        assert alexander_polynomial(Semigroup((3, 7))) == \
            (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1)

    def test_no_gaps(self):
        assert alexander_polynomial(Semigroup((1,))) == (1,)

    @given(standard_hn_sequences())
    def test_properties(self, s):
        sg = semigroup_of(hn_to_puiseux_char(s))
        coeffs = alexander_polynomial(sg)
        assert sum(coeffs) == 1            # value at 1
        assert coeffs == coeffs[::-1]      # palindromic
        assert len(coeffs) - 1 == 2 * len(sg.gaps)
        assert coeffs[0] == coeffs[-1] == 1


class TestGlobalCounts:
    @pytest.mark.parametrize("hn,m,i", [
        ("6/4,2/3", 12, 30),
        ("7/3", 9, 21),
        ("5/2", 6, 10),
        ("9/2", 10, 18),
    ])
    def test_fixtures(self, hn, m, i):
        assert compute_M_I(std(hn)) == (m, i)

    def test_odd_single_pair_closed_form(self):
        for k in range(1, 40):
            s = parse_hn(f"{2 * k + 1}/2", STANDARD)
            assert compute_M_I(s) == (2 * k + 2, 4 * k + 2)

    @given(standard_hn_sequences())
    def test_gap_count_identity(self, s):
        m, i = compute_M_I(s)
        sg = semigroup_of(hn_to_puiseux_char(s))
        assert (i - m) % 2 == 0
        assert len(sg.gaps) == (i - m) // 2
