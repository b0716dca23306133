"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every identity here is exact integer arithmetic; there is no tolerance
anywhere.  The PASS/FAIL lines go to the real stdout so they survive
pytest's capture.
"""

import logging
import math
import random
import sys
import time
from contextlib import contextmanager

from cuspforge.divisor import (
    Chain,
    WeightedTree,
    adjoint,
    classify_fiber,
    contracts_to_zero_curve,
    discriminant,
    fiber_multiplicities,
    hn_chain_identities,
    is_negative_definite,
    resolution_graph,
    star_concat,
)
from cuspforge.families import (
    CurveRecord,
    FamilySpec,
    distinctness_audit,
    enumerate_curves,
    expected_reduced_multiplicities,
    fibonacci,
    generate,
)
from cuspforge.hn import format_hn, parse_hn, standardize
from cuspforge.invariants import FULL, cusp_record, hn_to_multiplicity
from cuspforge.verify import (
    GENERIC,
    Q_ACYCLIC_CSTST,
    FibrationLedger,
    check_hn_equations,
    fibration_ledger,
    kkd,
)

import pytest

from support import (
    random_fiber,
    random_standard_hn,
    semigroup_membership_oracle,
    stress_standard_hn,
)

log = logging.getLogger("cuspforge.acceptance")


_WRITER = None


@pytest.fixture(autouse=True)
def _reporter(request):
    # the criterion lines must reach the terminal even under output capture,
    # so they go through pytest's own reporter when one is available
    global _WRITER
    _WRITER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(number, label, passed, note=""):
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion {number:>2}: {label}"
    if note:
        line += f"  ({note})"
    if _WRITER is not None:
        _WRITER.ensure_newline()
        _WRITER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(number, label, False)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        _report(number, label, False, f"runtime {elapsed:.2f}s exceeds {budget:.0f}s")
        raise AssertionError(
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    _report(number, label, True, f"{elapsed:.2f}s" if budget is not None else "")


def test_criterion_01_degree_seven_table():
    with criterion(1, "degree-7 bicuspidal example table and HN-equations",
                   budget=1.0):
        first = cusp_record(parse_hn("6/4,2/3"))
        second = cusp_record(parse_hn("7/3"))
        assert first.mult.reduced().entries() == (4, 2, 2, 2)
        assert second.mult.reduced().entries() == (3, 3)
        assert first.char.beta == (4, 6, 9)
        assert second.char.beta == (3, 7)
        assert first.puiseux.pairs == ((3, 2), (9, 2))
        assert second.puiseux.pairs == ((7, 3),)
        assert first.zariski.pairs == ((2, 3), (2, 3))
        assert second.zariski.pairs == ((3, 7),)
        assert first.semigroup.generators == (4, 6, 15)
        assert second.semigroup.generators == (3, 7)
        assert (first.M, first.I) == (12, 30)
        assert (second.M, second.I) == (9, 21)
        rec = CurveRecord.from_cusps(7, 2, [parse_hn("6/4,2/3"), parse_hn("7/3")])
        assert check_hn_equations(rec).ok


# degree and E^2 closed forms per family, kept separate from the generator
DEGREE_FORMULA = {
    "FZ1": lambda d, k: d,
    "A": lambda g, p, s: (g + 1) * p * s + 1,
    "B": lambda g, p, s: (g + 1) * p * s - g,
    "C": lambda g, p, s: (g * s + s + 1) * p + 1,
    "D": lambda g, p, s: (g * s + s + 1) * p - g,
    "E": lambda k: 8 * k + 6,
    "F": lambda k: 8 * k + 2,
    "G": lambda g: 2 * g - 1,
    "OR1": lambda k: fibonacci(4 * k + 2),
    "OR2": lambda k: 2 * fibonacci(4 * k + 2),
}

E2_FORMULA = {
    "FZ1": lambda d, k: -(d - 2),
    "A": lambda g, p, s: -g,
    "B": lambda g, p, s: -g,
    "C": lambda g, p, s: -g,
    "D": lambda g, p, s: -g,
    "E": lambda k: -2,
    "F": lambda k: -2,
    "G": lambda g: -g,
    "OR1": lambda k: -2,
    "OR2": lambda k: -2,
}


def test_criterion_02_table_regeneration():
    with criterion(2, "table regeneration for every instance of degree <= 100",
                   budget=30.0):
        records = enumerate_curves(100)
        assert len(records) > 100
        for rec in records:
            spec = rec.family
            assert rec.degree == DEGREE_FORMULA[spec.id](*spec.params)
            assert -rec.gamma == E2_FORMULA[spec.id](*spec.params)
            expected = expected_reduced_multiplicities(spec)
            got = tuple(hn_to_multiplicity(seq).reduced()
                        for seq in rec.standard_cusps)
            assert got == expected, str(spec)
            assert check_hn_equations(rec).ok, str(spec)


def test_criterion_03_special_standard_forms():
    with criterion(3, "seven non-standard family HN-types standardize "
                      "to their listed forms"):
        cases = []
        for g, p in [(2, 2), (3, 2), (2, 3), (4, 5)]:
            cases.append((("A", (g, p, 1)), 0,
                          f"{p * (g + 1)}/{p * g},{p}/{p + 1}"))
        for g, p in [(1, 2), (2, 3), (3, 4)]:
            cases.append((("D", (g, p, 1)), 1, f"{(g + 2) * p + 1}/{p}"))
        for p, s in [(3, 2), (4, 2), (3, 3)]:
            cases.append((("A", (1, p, s)), 0, f"{2 * p * s + p}/{p * s},{p}/1"))
        for p in [3, 4]:
            cases.append((("A", (1, p, 1)), 0, f"{3 * p + 1}/{p}"))
        for p, s in [(3, 2), (4, 2), (3, 3)]:
            cases.append((("B", (1, p, s)), 0,
                          f"{2 * (p * s - 1) + p}/{p * s - 1}"))
        cases.append((("F", (1,)), 1, "13/4"))
        cases.append((("OR1", (1,)), 0, "22/3"))
        cases.append((("OR2", (1,)), 0, "43/6"))
        for (fid, params), index, expected in cases:
            rec = generate(FamilySpec(fid, params))
            raw, std = rec.cusps[index]
            assert format_hn(standardize(raw)) == expected, (fid, params)
            assert format_hn(std) == expected


def test_criterion_04_resolution_suite():
    with criterion(4, "resolution graphs for 500 random standard sequences "
                      "and 200 chain identities", budget=60.0):
        rng = random.Random(0xACC4)
        seqs = [random_standard_hn(rng, max_h=4, cap=10_000) for _ in range(420)]
        seqs += [stress_standard_hn(rng, cap=10_000) for _ in range(80)]
        for seq in seqs:
            res = resolution_graph(seq)
            tree = res.tree
            assert discriminant(tree) == 1
            minus_ones = [v for v, w in enumerate(tree.weights) if w == -1]
            assert minus_ones == [res.c_vertex]
            adj = tree.adjacency()
            assert len(adj[res.c_vertex]) >= 2
            branching = sum(1 for nb in adj.values() if len(nb) >= 3)
            assert branching == len(seq.pairs) - 1
            assert is_negative_definite(tree)
            assert res.mult == hn_to_multiplicity(seq, FULL)
        done = 0
        while done < 200:
            c = rng.randrange(3, 5000)
            p = rng.randrange(1, c)
            if math.gcd(c, p) != 1:
                continue
            assert hn_chain_identities(c, p).ok, (c, p)
            done += 1


def test_criterion_05_chain_calculus():
    with criterion(5, "[A,1,A*] contracts to a 0-curve, any mutation breaks "
                      "it, star-concat is associative"):
        rng = random.Random(0xACC5)
        for _ in range(300):
            a = Chain(tuple(rng.randrange(2, 7)
                            for _ in range(rng.randrange(1, 6))))
            a_star = adjoint(a)
            assert discriminant(a) == discriminant(a_star)
            fiber = Chain(a.entries + (1,) + a_star.entries)
            assert contracts_to_zero_curve(fiber)
            for i in range(len(a_star.entries)):
                for delta in (-1, 1):
                    mutated = list(a_star.entries)
                    mutated[i] += delta
                    if mutated[i] < 1:
                        continue
                    broken = Chain(a.entries + (1,) + tuple(mutated))
                    assert not contracts_to_zero_curve(broken), (a, broken)
        for _ in range(300):
            chains = [Chain(tuple(rng.randrange(1, 7)
                                  for _ in range(rng.randrange(1, 5))))
                      for _ in range(3)]
            x, y, z = chains
            assert star_concat(star_concat(x, y), z) == \
                star_concat(x, star_concat(y, z))


def test_criterion_06_fiber_calculus():
    with criterion(6, "fiber multiplicities, the minimal special fork, and "
                      "(-1)-vertices of multiplicity 1"):
        assert fiber_multiplicities(Chain((2, 1, 2))) == (1, 2, 1)
        assert fiber_multiplicities(Chain((2, 2, 1, 3))) == (1, 2, 3, 1)
        fork = WeightedTree((-2, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
        report = classify_fiber(fork)
        assert report.shape == "special_fork"
        assert report.multiplicities[3] == 2
        assert report.minus_one_vertices == (3,)
        rng = random.Random(0xACC6)
        corpus = [random_fiber(rng, rng.randrange(0, 10)) for _ in range(250)]
        corpus += [Chain((2, 1, 2)).to_tree(), Chain((2, 2, 1, 3)).to_tree(),
                   fork]
        seen_minus_one_mu1 = 0
        for tree in corpus:
            mu = fiber_multiplicities(tree)
            adj = tree.adjacency()
            for v, w in enumerate(tree.weights):
                if w == -1 and mu[v] == 1:
                    seen_minus_one_mu1 += 1
                    assert len(adj[v]) <= 2
        assert seen_minus_one_mu1 > 50


def test_criterion_07_semigroup_alexander():
    with criterion(7, "gap count (I-M)/2, Alexander palindromy, brute-force "
                      "gap sets"):
        rng = random.Random(0xACC7)
        for _ in range(300):
            seq = random_standard_hn(rng, max_h=3, cap=60)
            rec = cusp_record(seq)
            assert len(rec.semigroup.gaps) == (rec.I - rec.M) // 2
            coeffs = rec.to_json_obj()["alexander_coeffs"]
            coeffs = tuple(int(c) for c in coeffs)
            assert sum(coeffs) == 1
            assert coeffs == coeffs[::-1]
            member = semigroup_membership_oracle(rec.semigroup.generators)
            brute_gaps = {n for n in range(1, rec.semigroup.conductor)
                          if not member(n)}
            assert brute_gaps == set(rec.semigroup.gaps)


def test_criterion_08_kkd_nonnegative():
    with criterion(8, "kkd >= 0 on every instance of enumerate(200)"):
        zero_count = 0
        records = enumerate_curves(200)
        for rec in records:
            value = kkd(rec)
            assert value >= 0, str(rec.family)
            if value == 0:
                zero_count += 1
                log.info("finding: kkd = 0 for %s", rec.family)
        log.info("finding: kkd = 0 on %d of %d instances",
                 zero_count, len(records))
        assert len(records) > 1000


def test_criterion_09_distinctness():
    with criterion(9, "no two families of degree <= 100 share a cusp "
                      "multiset"):
        records = enumerate_curves(100)
        assert distinctness_audit(records).ok
        seen = {}
        for rec in records:
            key = tuple(sorted(format_hn(s) for s in rec.standard_cusps))
            other = seen.setdefault(key, rec.family)
            assert other == rec.family, (str(other), str(rec.family))


def test_criterion_10_fibration_ledgers():
    with criterion(10, "reference fibration ledgers pass, 100 mutations all "
                       "detected"):
        bases = [FibrationLedger(3, 0, (2, 1, 1), (0, 0, 0)),
                 FibrationLedger(2, 1, (1, 2), (0, 0))]
        for ledger in bases:
            assert fibration_ledger(ledger, GENERIC).ok
            rep = fibration_ledger(ledger, Q_ACYCLIC_CSTST)
            assert rep.ok
            assert any(c.name == "euler_identity" for c in rep.checks)
        rng = random.Random(0xACC0)
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
