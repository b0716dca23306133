import itertools
import pickle

import pytest

from cuspforge import families
from cuspforge.errors import ParamOutOfDomain
from cuspforge.families import (
    _FAMILIES,
    FAMILY_IDS,
    CurveRecord,
    FamilySpec,
    check_domain,
    distinctness_audit,
    enumerate_curves,
    expected_reduced_multiplicities,
    fibonacci,
    generate,
)
from cuspforge.hn import format_hn, parse_hn
from cuspforge.invariants import compute_M_I, hn_to_multiplicity


def spec(fid, *params):
    return FamilySpec(fid, params)


class TestFibonacci:
    def test_values(self):
        assert [fibonacci(n) for n in range(11)] == \
            [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_negative_index(self):
        with pytest.raises(ValueError, match="negative Fibonacci index"):
            fibonacci(-1)

    def test_large(self):
        assert fibonacci(90) == 2880067194370816120
        assert fibonacci(89) * fibonacci(91) - fibonacci(90) ** 2 == 1


class TestFamilySpec:
    def test_str_and_named(self):
        s = spec("A", 2, 2, 1)
        assert str(s) == "A(2,2,1)"
        assert s.named() == {"gamma": 2, "p": 2, "s": 1}

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="'Z'"):
            FamilySpec("Z", (1,))

    def test_arity(self):
        with pytest.raises(ValueError, match="parameters"):
            FamilySpec("A", (1,))
        with pytest.raises(ValueError, match="parameters"):
            FamilySpec("G", (1, 2))

    @pytest.mark.parametrize("args,msg", [
        (("FZ1", 4, 0), "k >="),
        (("FZ1", 3, 1), "k <="),
        (("FZ1", 6, 9), "k <= d-3"),
        (("A", 0, 2, 1), "gamma >= 1"),
        (("A", 1, 1, 1), "p >= 2"),
        (("A", 1, 2, 1), r"excludes \(gamma,p\)"),
        (("B", 1, 2, 2), r"excludes \(gamma,p\)"),
        (("B", 2, 3, 1), "s >= 2"),
        (("C", 1, 2, 0), "s >= 1"),
        (("D", 1, 1, 1), "p >= 2"),
        (("E", 0), "k >= 1"),
        (("F", 0), "k >= 1"),
        (("G", 2), "gamma >= 3"),
        (("OR1", 0), "k >= 1"),
        (("OR2", 0), "k >= 1"),
    ])
    def test_domains(self, args, msg):
        with pytest.raises(ParamOutOfDomain, match=msg):
            check_domain(spec(*args))


GEN_FIXTURES = [
    # family args, degree, gamma, [(raw, standard)] per cusp
    (("G", 3), 5, 3, [("9/2", "9/2"), ("5/2", "5/2")]),
    (("FZ1", 4, 1), 4, 2, [("3/2", "3/2")] * 3),
    (("FZ1", 7, 3), 7, 5, [("7/2", "7/2"), ("6/5", "6/5"), ("5/2", "5/2")]),
    (("A", 2, 2, 1), 7, 2, [("6/4,2/2,2/1", "6/4,2/3"), ("7/3", "7/3")]),
    (("A", 3, 2, 1), 9, 3, [("8/6,2/2,2/1", "8/6,2/3"), ("10/3", "10/3")]),
    (("A", 1, 3, 2), 13, 1, [("12/6,6/3,3/1", "15/6,3/1"), ("11/7", "11/7")]),
    (("A", 1, 3, 1), 7, 1, [("6/3,3/3,3/1", "10/3"), ("5/4", "5/4")]),
    (("B", 1, 3, 2), 11, 1, [("10/5,5/3", "13/5"), ("9/6,3/1", "9/6,3/1")]),
    (("D", 2, 3, 1), 10, 2, [("9/7", "9/7"), ("12/3,3/1", "13/3")]),
    (("E", 1), 14, 2, [("16/6,2/1", "16/6,2/1"), ("12/8,4/1", "12/8,4/1")]),
    (("F", 1), 10, 2, [("8/6,2/1", "8/6,2/1"), ("12/4,4/1", "13/4")]),
    (("OR1", 1), 8, 2, [("21/3,3/1", "22/3")]),
    (("OR2", 1), 16, 2, [("42/6,6/1", "43/6")]),
]


class TestGenerate:
    @pytest.mark.parametrize("args,degree,gamma,cusps", GEN_FIXTURES,
                             ids=[str(spec(*a)) for a, _, _, _ in GEN_FIXTURES])
    def test_fixtures(self, args, degree, gamma, cusps):
        rec = generate(spec(*args))
        assert rec.degree == degree
        assert rec.gamma == gamma
        got = [(format_hn(r), format_hn(s)) for r, s in rec.cusps]
        assert got == cusps

    def test_out_of_domain_refused(self):
        with pytest.raises(ParamOutOfDomain):
            generate(spec("A", 1, 2, 1))

    def test_fibonacci_degrees(self):
        # OR degrees follow every fourth Fibonacci number
        assert generate(spec("OR1", 2)).degree == fibonacci(10)
        assert generate(spec("OR2", 2)).degree == 2 * fibonacci(10)

    @pytest.mark.parametrize("args", [a for a, _, _, _ in GEN_FIXTURES],
                             ids=[str(spec(*a)) for a, _, _, _ in GEN_FIXTURES])
    def test_global_identities(self, args):
        rec = generate(spec(*args))
        d, g = rec.degree, rec.gamma
        ms_is = [compute_M_I(s) for _, s in rec.cusps]
        assert g - 2 + 3 * d == sum(m for m, _ in ms_is)
        assert g + d * d == sum(i for _, i in ms_is)


class TestCurveRecord:
    def test_from_cusps_standardizes(self):
        rec = CurveRecord.from_cusps(7, 2, [parse_hn("6/4,2/2,2/1"), parse_hn("7/3")])
        assert [format_hn(s) for s in rec.standard_cusps] == ["6/4,2/3", "7/3"]
        assert rec.family is None

    def test_free_records_unconstrained(self):
        rec = CurveRecord.from_cusps(1, 0, [parse_hn("3/2")])
        assert rec.degree == 1

    def test_family_records_constrained(self):
        g3 = generate(spec("G", 3))
        with pytest.raises(ValueError, match="degree"):
            CurveRecord(2, g3.gamma, g3.cusps, g3.family)
        with pytest.raises(ValueError, match="gamma"):
            CurveRecord(g3.degree, 0, g3.cusps, g3.family)
        with pytest.raises(ValueError, match="cusps"):
            CurveRecord(g3.degree, g3.gamma, g3.cusps * 2, g3.family)

    def test_json_schema(self):
        obj = generate(spec("G", 3)).to_json_obj()
        assert obj == {
            "family": {"id": "G", "params": {"gamma": "3"}},
            "degree": "5",
            "gamma": "3",
            "cusps": [
                {"raw": [["9", "2"]], "standard": [["9", "2"]]},
                {"raw": [["5", "2"]], "standard": [["5", "2"]]},
            ],
        }


class TestEnumerate:
    def test_below_cubics_empty(self):
        assert enumerate_curves(2) == []
        assert enumerate_curves(-5) == []

    def test_exact_list_to_degree_five(self):
        assert [str(r.family) for r in enumerate_curves(5)] == \
            ["FZ1(4,1)", "FZ1(5,2)", "D(1,2,1)", "G(3)"]

    def test_degree_eight_contains_first_fibonacci_curve(self):
        names = [str(r.family) for r in enumerate_curves(8)]
        assert "OR1(1)" in names
        assert names.index("A(1,3,1)") < names.index("D(1,2,1)")

    def test_everything_within_bound_and_in_domain(self):
        for rec in enumerate_curves(40):
            assert 3 <= rec.degree <= 40
            check_domain(rec.family)
            regenerated = generate(rec.family)
            assert regenerated.degree == rec.degree
            assert regenerated.standard_cusps == rec.standard_cusps

    @pytest.mark.parametrize("max_degree", [30, 100])
    def test_records_share_cusps_within_one_call(self, max_degree):
        records = enumerate_curves(max_degree)
        assert records == [generate(r.family) for r in records]
        # equal raw cusps of one call are one (raw, std) pair of objects
        first = {}
        for rec in records:
            for raw, std in rec.cusps:
                seen = first.setdefault(raw, (raw, std))
                assert seen[0] is raw and seen[1] is std, str(rec.family)
        assert len(first) < sum(len(r.cusps) for r in records)
        # a second call builds its own
        ids = {id(seq) for rec in records for cusp in rec.cusps for seq in cusp}
        again = enumerate_curves(max_degree)
        assert again == records
        assert not ids & {id(seq) for rec in again for cusp in rec.cusps for seq in cusp}
        assert pickle.loads(pickle.dumps(records)) == records

    def test_each_distinct_cusp_standardized_once(self, monkeypatch):
        # 7,486 cusps over degree <= 80, of which 2,757 distinct raw ones
        calls = 0
        real = families.standardize

        def counted(seq):
            nonlocal calls
            calls += 1
            return real(seq)

        monkeypatch.setattr(families, "standardize", counted)
        records = enumerate_curves(80)
        assert sum(len(r.cusps) for r in records) == 7486
        assert calls <= 2757

    def test_family_order_canonical(self):
        order = {fid: i for i, fid in enumerate(FAMILY_IDS)}
        recs = enumerate_curves(25)
        keys = [(order[r.family.id], r.family.params) for r in recs]
        assert keys == sorted(keys)

    def test_completeness_against_brute_force(self):
        # the sweep lists exactly the in-domain grid instances within each
        # bound, ordered by (family index, params)
        brute = []
        for index, fid in enumerate(FAMILY_IDS):
            arity = {"FZ1": 2, "A": 3, "B": 3, "C": 3, "D": 3}.get(fid, 1)
            for params in itertools.product(range(0, 24), repeat=arity):
                try:
                    s = FamilySpec(fid, params)
                    check_domain(s)
                except (ValueError, ParamOutOfDomain):
                    continue
                if fid.startswith("OR") and params[0] > 4:
                    continue
                brute.append((index, params, generate(s).degree, str(s)))
        brute.sort()
        for max_degree in (3, 4, 5, 12, 20):
            want = [name for _, _, degree, name in brute if degree <= max_degree]
            got = [str(r.family) for r in enumerate_curves(max_degree)]
            assert got == want, max_degree


def admissible(fid, params):
    try:
        check_domain(FamilySpec(fid, params))
    except ParamOutOfDomain:
        return False
    return True


# parameter values per arity for the grid checks of the sweep's three facts
FACT_GRID = {1: range(-2, 40), 2: range(-2, 40), 3: range(-2, 14)}


class TestSweepFacts:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_admissible_parameters_between_one_and_degree(self, fid):
        names, degree = _FAMILIES[fid].names, _FAMILIES[fid].degree
        for params in itertools.product(FACT_GRID[len(names)], repeat=len(names)):
            if admissible(fid, params):
                assert all(1 <= v <= degree(*params) for v in params), params

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_degree_never_falls_when_a_parameter_rises(self, fid):
        # over every positive tuple: the sweep bounds a prefix's completions
        # by the degree with the later parameters at 1, admissible or not
        names, degree = _FAMILIES[fid].names, _FAMILIES[fid].degree
        positive = [v for v in FACT_GRID[len(names)] if v >= 1]
        for params in itertools.product(positive, repeat=len(names)):
            for i in range(len(params)):
                raised = params[:i] + (params[i] + 1,) + params[i + 1:]
                assert degree(*raised) >= degree(*params), (params, i)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_last_parameter_admissible_on_one_interval(self, fid):
        names = _FAMILIES[fid].names
        grid = FACT_GRID[len(names)]
        for prefix in itertools.product(grid, repeat=len(names) - 1):
            admitted = [v for v in grid if admissible(fid, prefix + (v,))]
            if admitted:
                assert admitted == list(range(admitted[0], admitted[-1] + 1)), prefix


class TestTableMultiplicities:
    @pytest.mark.parametrize("args", [a for a, _, _, _ in GEN_FIXTURES],
                             ids=[str(spec(*a)) for a, _, _, _ in GEN_FIXTURES])
    def test_fixture_rows(self, args):
        s = spec(*args)
        rec = generate(s)
        want = expected_reduced_multiplicities(s)
        got = [hn_to_multiplicity(std) for std in rec.standard_cusps]
        assert list(want) == got

    def test_specific_run_shapes(self):
        e1 = expected_reduced_multiplicities(spec("E", 1))
        assert [m.entries() for m in e1] == [(6, 6, 4, 2, 2), (8, 4, 4)]
        g3 = expected_reduced_multiplicities(spec("G", 3))
        assert [m.entries() for m in g3] == [(2, 2, 2, 2), (2, 2)]
        or12 = expected_reduced_multiplicities(spec("OR1", 2))
        assert or12[0].entries() == (21,) * 6 + (18, 3, 3, 3, 3, 3, 3)

    def test_whole_enumeration_matches(self):
        for rec in enumerate_curves(60):
            want = expected_reduced_multiplicities(rec.family)
            got = [hn_to_multiplicity(std) for std in rec.standard_cusps]
            assert list(want) == got, str(rec.family)


class TestDistinctness:
    def test_enumeration_is_collision_free(self):
        rep = distinctness_audit(enumerate_curves(60))
        assert rep.ok
        assert rep.collisions == ()

    def test_duplicate_detected(self):
        recs = list(enumerate_curves(6))
        rep = distinctness_audit(recs + [recs[0]])
        assert not rep.ok
        assert len(rep.collisions) == 1
