import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cuspforge.verify as verify
from cuspforge.errors import NotStandard
from cuspforge.families import CurveRecord, FamilySpec, enumerate_curves, generate
from cuspforge.hn import RAW, STANDARD, HNPair, HNSequence, parse_hn
from cuspforge.invariants import MultiplicitySequence
from cuspforge.verify import (
    GENERIC,
    Q_ACYCLIC_CSTST,
    AuditReport,
    Check,
    FibrationLedger,
    check_E2_bounds,
    check_hn_equations,
    fibration_ledger,
    full_audit,
    kkd,
)
from support import replaced


def curve(degree, gamma, *hn_texts):
    return CurveRecord.from_cusps(degree, gamma, [parse_hn(t) for t in hn_texts])


DEGREE_SEVEN = curve(7, 2, "6/4,2/3", "7/3")


class TestReport:
    def test_ok_and_failed(self):
        rep = AuditReport((Check("a", True, 1, 1), Check("b", False, 2, 3)))
        assert not rep.ok
        assert [c.name for c in rep.failed()] == ["b"]
        assert AuditReport((Check("a", True, 1, 1),)).ok

    def test_json_schema(self):
        rep = AuditReport((Check("a", True, 21, 21), Check("b", False, 11, 4)))
        assert rep.to_json_obj() == {
            "checks": [
                {"name": "a", "pass": True, "lhs": "21", "rhs": "21"},
                {"name": "b", "pass": False, "lhs": "11", "rhs": "4"},
            ]
        }

    def test_failed_check_carries_both_values(self):
        rep = check_hn_equations(curve(4, 1, "3/2"))
        bad = {c.name: c for c in rep.failed()}
        assert bad["hn_equation_a"].lhs == 11
        assert bad["hn_equation_a"].rhs == 4


class TestHnEquations:
    def test_degree_seven(self):
        rep = check_hn_equations(DEGREE_SEVEN)
        assert rep.ok
        values = {c.name: (c.lhs, c.rhs) for c in rep.checks}
        assert values == {
            "hn_equation_a": (21, 21),
            "hn_equation_b": (51, 51),
            "hn_equation_c": (30, 30),
        }

    def test_family_instances(self):
        for args in [("FZ1", (5, 2)), ("G", (3,)), ("OR1", (1,)), ("E", (1,))]:
            assert check_hn_equations(generate(FamilySpec(*args))).ok

    def test_failure(self):
        rep = check_hn_equations(curve(4, 1, "3/2"))
        assert not rep.ok
        assert all(not c.passed for c in rep.checks)

    def test_third_equation_follows_from_first_two(self):
        # (d-1)(d-2) = (gamma + d^2) - (gamma - 2 + 3d) identically, so any
        # record passing (a) and (b) must pass (c)
        rng = random.Random(11)
        base = enumerate_curves(25)
        for _ in range(200):
            rec = rng.choice(base)
            mutated = CurveRecord(rec.degree + rng.randint(-2, 2),
                                  rec.gamma + rng.randint(-2, 2),
                                  rec.cusps)
            by_name = {c.name: c.passed
                       for c in check_hn_equations(mutated).checks}
            if by_name["hn_equation_a"] and by_name["hn_equation_b"]:
                assert by_name["hn_equation_c"]


class TestE2Bounds:
    def test_two_cusps(self):
        rep = check_E2_bounds(DEGREE_SEVEN)
        assert rep.ok
        assert [c.name for c in rep.checks] == ["E2_two_cusp_bound",
                                                "E2_general_bound"]

    def test_single_cusp_boundary(self):
        rep = check_E2_bounds(generate(FamilySpec("OR1", (1,))))
        assert rep.ok
        by_name = {c.name: c for c in rep.checks}
        assert by_name["E2_single_cusp_bound"].lhs == -2
        assert by_name["E2_single_cusp_bound"].rhs == -2

    def test_three_cusp_boundary(self):
        rep = check_E2_bounds(generate(FamilySpec("FZ1", (4, 1))))
        assert rep.ok
        by_name = {c.name: c for c in rep.checks}
        assert by_name["E2_general_bound"].lhs == -2
        assert by_name["E2_general_bound"].rhs == -2

    def test_failures(self):
        assert not check_E2_bounds(curve(5, 0, "3/2", "3/2")).ok
        rep = check_E2_bounds(curve(5, 1, "3/2"))
        assert [c.name for c in rep.failed()] == ["E2_single_cusp_bound"]


class TestKkd:
    def test_zero_on_fixtures(self):
        assert kkd(DEGREE_SEVEN) == 0
        assert kkd(generate(FamilySpec("OR1", (1,)))) == 0
        assert kkd(generate(FamilySpec("G", (3,)))) == 0

    def test_zero_across_enumeration(self):
        assert all(kkd(rec) == 0 for rec in enumerate_curves(30))

    def test_signed_values(self):
        assert kkd(curve(4, 1, "3/2")) == 5
        assert kkd(curve(4, 1, "103/3")) == -28

    def test_rejects_non_standard_cusp(self):
        # a record built directly is not standardized; p1 > c1 leaves no blowups
        bad = parse_hn("2/3", STANDARD)
        with pytest.raises(NotStandard, match="2/3 gives 0 blowups for 1 pairs"):
            kkd(CurveRecord(degree=4, gamma=1, cusps=((bad, bad),)))


class TestFibrationLedger:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="h"):
            FibrationLedger(0, 0, (2, 1, 1))
        with pytest.raises(ValueError, match="nu"):
            FibrationLedger(3, -1, (2, 1, 1))
        with pytest.raises(ValueError, match="sigma"):
            FibrationLedger(3, 0, (2, 0, 1))
        with pytest.raises(ValueError, match="chis"):
            FibrationLedger(3, 0, (2, 1, 1), (0, 0))

    def test_both_reference_configurations(self):
        for ledger in (FibrationLedger(3, 0, (2, 1, 1), (0, 0, 0)),
                       FibrationLedger(2, 1, (1, 2), (0, 0))):
            assert fibration_ledger(ledger, GENERIC).ok
            rep = fibration_ledger(ledger, Q_ACYCLIC_CSTST)
            assert rep.ok
            assert any(c.name == "euler_identity" for c in rep.checks)

    def test_generic_failure(self):
        rep = fibration_ledger(FibrationLedger(3, 0, (1, 1)), GENERIC)
        assert not rep.ok
        assert rep.checks[0].name == "sigma_count_identity"
        assert (rep.checks[0].lhs, rep.checks[0].rhs) == (1, 0)

    def test_chis_optional(self):
        rep = fibration_ledger(FibrationLedger(3, 0, (2, 1, 1)), Q_ACYCLIC_CSTST)
        assert rep.ok
        assert all(c.name != "euler_identity" for c in rep.checks)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            fibration_ledger(FibrationLedger(3, 0, (2, 1, 1)), "fancy")

    def test_mutations_always_detected(self):
        rng = random.Random(23)
        bases = [FibrationLedger(3, 0, (2, 1, 1), (0, 0, 0)),
                 FibrationLedger(2, 1, (1, 2), (0, 0))]
        for _ in range(100):
            base = rng.choice(bases)
            field = rng.choice(("h", "nu", "sigma", "chi"))
            h, nu = base.h, base.nu
            sigmas, chis = list(base.sigmas), list(base.chis)
            delta = rng.choice((-1, 1))
            if field == "h":
                h = max(1, h + delta)
                if h == base.h:
                    h += 1
            elif field == "nu":
                nu = nu + 1 if nu == 0 or delta > 0 else nu - 1
            elif field == "sigma":
                i = rng.randrange(len(sigmas))
                sigmas[i] = max(1, sigmas[i] + delta)
                if sigmas[i] == base.sigmas[i]:
                    sigmas[i] += 1
            else:
                i = rng.randrange(len(chis))
                chis[i] += delta
            mutated = FibrationLedger(h, nu, tuple(sigmas), tuple(chis))
            assert not fibration_ledger(mutated, Q_ACYCLIC_CSTST).ok


def corrupting(real, index):
    """resolution_graph with the end of run `index` lowered by one."""
    def corrupted(seq):
        res = real(seq)
        runs = list(res.runs)
        runs[index] = runs[index]._replace(end=runs[index].end - 1)
        return replaced(res, runs=tuple(runs))
    return corrupted


CORRUPTIBLE = (FamilySpec("G", (7,)), FamilySpec("A", (2, 2, 1)), FamilySpec("OR1", (2,)))


class TestFullAudit:
    def test_family_spec_and_record_paths_agree(self):
        s = FamilySpec("A", (2, 2, 1))
        assert full_audit(s).to_json_obj() == full_audit(generate(s)).to_json_obj()

    def test_enumeration_all_pass(self):
        for rec in enumerate_curves(60):
            rep = full_audit(rec)
            assert rep.ok, (str(rec.family), [c.name for c in rep.failed()])

    def test_corrupted_degree_flagged(self):
        rec = generate(FamilySpec("G", (3,)))
        bad = CurveRecord(rec.degree + 1, rec.gamma, rec.cusps, rec.family)
        rep = full_audit(bad)
        assert not rep.ok
        assert "hn_equation_a" in {c.name for c in rep.failed()}

    def test_corrupted_gamma_flagged(self):
        rec = generate(FamilySpec("G", (3,)))
        bad = CurveRecord(rec.degree, rec.gamma + 1, rec.cusps, rec.family)
        names = {c.name for c in full_audit(bad).failed()}
        assert {"hn_equation_a", "hn_equation_b"} <= names

    def test_swapped_cusps_fail_table_row(self):
        a = generate(FamilySpec("A", (2, 2, 1)))
        g = generate(FamilySpec("G", (3,)))
        bad = CurveRecord(a.degree, a.gamma, g.cusps, a.family)
        names = {c.name for c in full_audit(bad).failed()}
        assert "cusp1_table_multiplicities" in names

    def test_plain_record_without_family(self):
        rep = full_audit(DEGREE_SEVEN)
        assert rep.ok
        assert all("table" not in c.name for c in rep.checks)

    def test_corrupted_run_weight_fails_resolution_checks(self, monkeypatch):
        # lowering one weight of a definite tree raises its discriminant by
        # that of the rest of the tree, so d = 1 (or definiteness) must fail
        real = verify.resolution_graph
        for spec in CORRUPTIBLE:
            for index in (0, 1):
                monkeypatch.setattr(verify, "resolution_graph", corrupting(real, index))
                names = {c.name for c in full_audit(spec).failed()}
                assert names & {"cusp1_resolution_discriminant",
                                "cusp1_resolution_negative_definite"}, (spec, index)
            monkeypatch.setattr(verify, "resolution_graph", real)
            assert full_audit(spec).ok

    def test_multiplicity_checks_carry_sequences(self):
        rep = full_audit(FamilySpec("G", (5,)))
        by_name = {c.name: c for c in rep.checks}
        check = by_name["cusp1_resolution_multiplicities"]
        assert isinstance(check.lhs, MultiplicitySequence)
        assert check.lhs == check.rhs
        assert str(check.lhs) == "4,4,4,4,1,1,1,1"
        assert str(by_name["cusp2_table_multiplicities"].rhs) == "2,2,2,2"


def reversed_cusps(record):
    return CurveRecord(record.degree, record.gamma, record.cusps[::-1], record.family)


# every record of degree <= 30, and a copy of each with its cusps reversed,
# so that one cusp is audited both as cusp 1 and as cusp 2
BATCH_POOL = [variant for r in enumerate_curves(30) for variant in (r, reversed_cusps(r))]


class TestBatchAudit:
    """_audit_each shares the per-cusp checks of one batch and nothing more."""

    def test_matches_full_audit_over_enumeration(self):
        records = enumerate_curves(60)
        assert list(verify._audit_each(records)) == [full_audit(r) for r in records]

    def test_cusp_at_both_positions(self):
        record = generate(FamilySpec("A", (2, 2, 1)))
        records = [record, reversed_cusps(record), record]
        reports = list(verify._audit_each(records))
        assert reports == [full_audit(r) for r in records]
        first, swapped = reports[0].checks[10], reports[1].checks[0]
        assert (first.name, swapped.name) == ("cusp2_standard_valid", "cusp1_standard_valid")
        assert first.lhs == swapped.lhs

    @given(st.lists(st.sampled_from(BATCH_POOL), max_size=30))
    def test_shuffled_and_repeated_batches_match_full_audit(self, records):
        assert list(verify._audit_each(records)) == [full_audit(r) for r in records]

    def test_no_state_outlives_a_batch(self, monkeypatch):
        records = [generate(spec) for spec in CORRUPTIBLE]
        assert all(report.ok for report in verify._audit_each(records))
        monkeypatch.setattr(verify, "resolution_graph",
                            corrupting(verify.resolution_graph, 0))
        for report in verify._audit_each(records):
            assert {c.name for c in report.failed()} & {
                "cusp1_resolution_discriminant", "cusp1_resolution_negative_definite"}
        monkeypatch.undo()
        assert all(report.ok for report in verify._audit_each(records))

    def test_repeated_cusps_are_resolved_once(self, monkeypatch):
        # 7,486 cusps over degree <= 80, of which the 256-entry window
        # resolves about 3,100; without sharing every cusp is resolved
        calls = 0
        real = verify.resolution_graph

        def counted(seq):
            nonlocal calls
            calls += 1
            return real(seq)

        monkeypatch.setattr(verify, "resolution_graph", counted)
        records = enumerate_curves(80)
        assert all(report.ok for report in verify._audit_each(records))
        assert sum(len(r.cusps) for r in records) == 7486
        assert calls <= 3200


CUSP_CHECKS = ("standard_valid", "standardize_idempotent", "raw_standardizes_to",
               "multiplicity_round_trip", "resolution_unique_minus_one",
               "resolution_c_not_tip", "resolution_branching_count",
               "resolution_discriminant", "resolution_negative_definite",
               "resolution_multiplicities")


class TestFailingRecords:
    """Every check keeps its name, its place and its verdict on faulty records."""

    def names(self, cusps, table):
        names = [f"cusp{j}_{check}" for j in range(1, cusps + 1) for check in CUSP_CHECKS]
        if table:
            names += [f"cusp{j}_table_multiplicities" for j in range(1, cusps + 1)]
        return names + ["hn_equation_a", "hn_equation_b", "hn_equation_c"]

    def test_corrupted_family_records(self):
        g = generate(FamilySpec("G", (3,)))
        a = generate(FamilySpec("A", (2, 2, 1)))
        cases = [
            (CurveRecord(g.degree + 1, g.gamma, g.cusps, g.family),
             ["hn_equation_a", "hn_equation_b", "hn_equation_c"]),
            (CurveRecord(g.degree, g.gamma + 1, g.cusps, g.family),
             ["hn_equation_a", "hn_equation_b"]),
            (CurveRecord(a.degree, a.gamma, g.cusps, a.family),
             ["cusp1_table_multiplicities", "cusp2_table_multiplicities",
              "hn_equation_a", "hn_equation_b", "hn_equation_c", "kkd_nonnegative"]),
        ]
        for record, failed in cases:
            rep = full_audit(record)
            assert [c.name for c in rep.checks] == self.names(2, table=True) + [
                "E2_two_cusp_bound", "E2_general_bound", "kkd_nonnegative"]
            assert [c.name for c in rep.failed()] == failed

    def test_cusp_checks_work_on_their_subject(self):
        # a raw sequence held as its own standard form fails idempotence and
        # the round trip; a wrong standard form fails raw_standardizes_to
        raw = parse_hn("4/2,2/1")
        cases = [
            (((raw, raw),),
             [("cusp1_standardize_idempotent", "5/2", "4/2,2/1"),
              ("cusp1_raw_standardizes_to", "5/2", "4/2,2/1"),
              ("cusp1_multiplicity_round_trip", "5/2", "4/2,2/1"),
              ("cusp1_resolution_branching_count", 0, 1),
              ("hn_equation_a", 14, 6), ("hn_equation_b", 26, 10),
              ("hn_equation_c", 12, 4), ("E2_single_cusp_bound", -1, -2)]),
            (((parse_hn("7/3"), parse_hn("6/4,2/3", STANDARD)),),
             [("cusp1_raw_standardizes_to", "7/3", "6/4,2/3"),
              ("hn_equation_a", 14, 12), ("hn_equation_b", 26, 30),
              ("hn_equation_c", 12, 18), ("E2_single_cusp_bound", -1, -2)]),
        ]
        hn_rows = {"cusp1_standardize_idempotent", "cusp1_raw_standardizes_to",
                   "cusp1_multiplicity_round_trip"}
        for cusps, failed in cases:
            rep = full_audit(CurveRecord(5, 1, cusps))
            assert [c.name for c in rep.checks] == self.names(1, table=False) + [
                "E2_single_cusp_bound", "E2_general_bound", "kkd_nonnegative"]
            rows = []
            for c in rep.failed():
                if c.name in hn_rows:
                    assert isinstance(c.lhs, HNSequence) and isinstance(c.rhs, HNSequence)
                    rows.append((c.name, str(c.lhs), str(c.rhs)))
                else:
                    rows.append((c.name, c.lhs, c.rhs))
            assert rows == failed

    def test_declared_standard_but_not_standard_is_refused(self):
        record = CurveRecord(5, 1, ((parse_hn("4/2,2/1"), parse_hn("4/2,2/1", STANDARD)),))
        with pytest.raises(ValueError, match="p1 = 2 divides c1 = 4"):
            full_audit(record)


class TestAuditScaling:
    def test_huge_family_parameter(self):
        # the resolution checks cost O(#Euclidean quotients), not O(gamma)
        t0 = time.process_time()
        rep = full_audit(FamilySpec("G", (10**12,)))
        assert time.process_time() - t0 < 2.0
        assert rep.ok

    def test_cusp_checks_never_print_a_huge_pair(self):
        # the HN checks compare pairs, not decimal text, which Python refuses
        # to write past 4300 digits
        record = CurveRecord.from_cusps(3, 1, [HNSequence((HNPair(10**5000 + 1, 2),), RAW)])
        t0 = time.process_time()
        rep = full_audit(record)
        assert time.process_time() - t0 < 0.1
        cusp = [c for c in rep.checks if c.name.startswith("cusp1_")]
        assert [c.name for c in cusp] == [f"cusp1_{check}" for check in CUSP_CHECKS]
        assert all(c.passed for c in cusp)
