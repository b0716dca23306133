"""Arithmetic audits: global cusp identities, bounds, and fibration ledgers.

Every audit produces an AuditReport of named checks carrying both compared
values, so a failure is always reproducible from the report alone.  An HN
sequence, like a multiplicity sequence, is carried as itself and printed
through str().
Curves are audited in batches, and `full_audit` runs a batch of one: a cusp
seen recently in the batch, at the same position, is checked once and its
checks are reused.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, Union

from .divisor import resolution_graph
from .errors import NotStandard
from .families import CurveRecord, FamilySpec, expected_reduced_multiplicities, generate
from .hn import HNSequence, _Frozen, format_hn, standardize, validate
from .invariants import (
    FULL,
    MultiplicitySequence,
    compute_M_I,
    hn_to_multiplicity,
    multiplicity_to_standard_hn,
)

GENERIC = "generic"
Q_ACYCLIC_CSTST = "q_acyclic_Cstst"


class Check(_Frozen):
    _fields = ("name", "passed", "lhs", "rhs")
    name: str
    passed: bool
    lhs: Union[int, str, HNSequence, MultiplicitySequence]
    rhs: Union[int, str, HNSequence, MultiplicitySequence]


class AuditReport(_Frozen):
    _fields = ("checks",)
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_obj(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "pass": c.passed, "lhs": str(c.lhs), "rhs": str(c.rhs)}
                for c in self.checks
            ]
        }


def _eq(name: str, lhs, rhs) -> Check:
    return Check(name, lhs == rhs, lhs, rhs)


def _le(name: str, lhs, rhs) -> Check:
    return Check(name, lhs <= rhs, lhs, rhs)


def _same_hn(name: str, lhs: HNSequence, rhs: HNSequence) -> Check:
    # the pairs alone, as their text compared: a raw cusp may stand as its own standard form
    return Check(name, lhs.pairs == rhs.pairs, lhs, rhs)


def check_hn_equations(curve: CurveRecord) -> AuditReport:
    """The three degree/genus identities tying the cusps to the curve.

    (a) gamma - 2 + 3d equals the sum of the M values, (b) gamma + d^2
    equals the sum of the I values, (c) (d-1)(d-2) equals the sum of I - M.
    The third follows from the first two; it is still checked separately.
    """
    d, g = curve.degree, curve.gamma
    ms, is_ = [], []
    for _, std in curve.cusps:
        m, i = compute_M_I(std)
        ms.append(m)
        is_.append(i)
    return AuditReport((
        _eq("hn_equation_a", g - 2 + 3 * d, sum(ms)),
        _eq("hn_equation_b", g + d * d, sum(is_)),
        _eq("hn_equation_c", (d - 1) * (d - 2), sum(is_) - sum(ms)),
    ))


def check_E2_bounds(curve: CurveRecord) -> AuditReport:
    """Self-intersection bounds E^2 <= -2 (one cusp), <= -1 (two), <= 7-3c."""
    c = len(curve.cusps)
    e2 = -curve.gamma
    checks = []
    if c == 1:
        checks.append(_le("E2_single_cusp_bound", e2, -2))
    elif c == 2:
        checks.append(_le("E2_two_cusp_bound", e2, -1))
    checks.append(_le("E2_general_bound", e2, 7 - 3 * c))
    return AuditReport(tuple(checks))


def kkd(curve: CurveRecord) -> int:
    """K.(K+D) of the minimal log resolution, from the blowup counts.

    Each cusp contributes r_j blowups beyond the first: the head quotient
    plus, per later pair, one plus its quotient.  The count is tied to the
    standard form; raw pair lists decompose the same process differently.
    """
    total = 0
    for _, std in curve.cusps:
        pairs = std.pairs
        r = pairs[0].c // pairs[0].p
        for pr in pairs[1:]:
            r += 1 + pr.p // pr.c
        if r < len(pairs):
            raise NotStandard(f"{format_hn(std)} gives {r} blowups for {len(pairs)} pairs")
        total += 2 + r
    return 9 - total - 2 + curve.gamma


class FibrationLedger(_Frozen):
    """Counting data of one C**-fibration: horizontal components h, the
    number nu of fibers contained in the boundary, and per-degenerate-fiber
    section counts sigma (with optional Euler characteristics)."""

    _fields = ("h", "nu", "sigmas", "chis")
    h: int
    nu: int
    sigmas: tuple[int, ...]
    chis: tuple[int, ...] | None

    def __init__(self, h: int, nu: int, sigmas: Iterable[int],
                 chis: Iterable[int] | None = None) -> None:
        h, nu, sigmas = index(h), index(nu), tuple(map(index, sigmas))
        if chis is not None:
            chis = tuple(map(index, chis))
        if h < 1:
            raise ValueError(f"h = {h} must be >= 1")
        if nu < 0:
            raise ValueError(f"nu = {nu} must be >= 0")
        if any(s < 1 for s in sigmas):
            raise ValueError(f"every sigma must be >= 1, got {sigmas}")
        if chis is not None and len(chis) != len(sigmas):
            raise ValueError("chis must pair up with sigmas")
        self._fill(h, nu, sigmas, chis)


def fibration_ledger(ledger: FibrationLedger, mode: str = GENERIC) -> AuditReport:
    """Check the fiber-counting identities of a fibration ledger.

    Generic mode: h + nu - 2 equals the sum of (sigma - 1) over degenerate
    fibers.  The q_acyclic_Cstst mode adds the constraints specific to a
    C**-fibration of a Q-acyclic surface: exactly 3 - nu degenerate fibers,
    sigma summing to h + 1, nu <= 1, and (when Euler characteristics are
    supplied) the surface Euler characteristic identity.
    """
    if mode not in (GENERIC, Q_ACYCLIC_CSTST):
        raise ValueError(f"unknown ledger mode {mode!r}")
    checks = [
        _eq("sigma_count_identity", ledger.h + ledger.nu - 2,
            sum(s - 1 for s in ledger.sigmas)),
    ]
    if mode == Q_ACYCLIC_CSTST:
        checks.append(_eq("degenerate_fiber_count", len(ledger.sigmas), 3 - ledger.nu))
        checks.append(_eq("sigma_sum", sum(ledger.sigmas), ledger.h + 1))
        checks.append(_le("nu_bound", ledger.nu, 1))
        if ledger.chis is not None:
            # chi(V) = chi(B)chi(f) + sum (chi(F_b) - chi(f)) with
            # chi(V) = 1, chi(f) = -1, chi(B) = 2 - nu
            rhs = -(2 - ledger.nu) + sum(x + 1 for x in ledger.chis)
            checks.append(_eq("euler_identity", 1, rhs))
    return AuditReport(tuple(checks))


def _cusp_checks(raw: HNSequence, std: HNSequence,
                 j: int) -> tuple[tuple[Check, ...], MultiplicitySequence]:
    """The checks of cusp j alone, with its full multiplicity sequence.

    They depend on (raw, std, j) only: j enters each check's name.
    """
    tag = f"cusp{j}"
    checks = [
        Check(f"{tag}_standard_valid", validate(std).ok, std, "standard"),
        _same_hn(f"{tag}_standardize_idempotent", standardize(std), std),
        _same_hn(f"{tag}_raw_standardizes_to", standardize(raw), std),
    ]
    full = hn_to_multiplicity(std, FULL)
    checks.append(_same_hn(f"{tag}_multiplicity_round_trip",
                           multiplicity_to_standard_hn(full), std))
    res = resolution_graph(std)
    inv = res.invariants()
    checks.append(_eq(f"{tag}_resolution_unique_minus_one", inv.minus_ones, 1))
    checks.append(_le(f"{tag}_resolution_c_not_tip", 2, inv.curve_degree))
    checks.append(_eq(f"{tag}_resolution_branching_count", inv.branching, std.h - 1))
    checks.append(_eq(f"{tag}_resolution_discriminant", inv.discriminant, 1))
    checks.append(Check(f"{tag}_resolution_negative_definite",
                        inv.definite, "definite", "definite"))
    checks.append(_eq(f"{tag}_resolution_multiplicities", res.mult, full))
    return tuple(checks), full


def full_audit(obj: Union[FamilySpec, CurveRecord]) -> AuditReport:
    """Run every per-cusp and per-curve audit on a record or family instance.

    Covers: validity and idempotence of the standard forms, multiplicity
    round-trips, resolution-graph invariants, tabulated multiplicity
    agreement for family records, the three global identities, the E^2
    bounds, and non-negativity of K.(K+D).
    """
    record = generate(obj) if isinstance(obj, FamilySpec) else obj
    return next(_audit_each((record,)))


def _audit_each(records: Iterable[CurveRecord]) -> Iterator[AuditReport]:
    """full_audit of each record, sharing the per-cusp checks within the batch.

    The cache lives for one batch only, so nothing outlasts the call.  An
    enumeration visits parameters in order and its repeated cusps come close
    together: 256 entries get 4,375 of the 4,498 possible hits at degree 80.
    """
    cusp_checks = lru_cache(maxsize=256)(_cusp_checks)
    for record in records:
        checks: list[Check] = []
        fulls = []
        for j, (raw, std) in enumerate(record.cusps, start=1):
            cusp, full = cusp_checks(raw, std, j)
            checks += cusp
            fulls.append(full)
        if record.family is not None:
            expected = expected_reduced_multiplicities(record.family)
            for j, (full, want) in enumerate(zip(fulls, expected), start=1):
                checks.append(_eq(f"cusp{j}_table_multiplicities", full.reduced(), want))
        checks += check_hn_equations(record).checks
        checks += check_E2_bounds(record).checks
        value = kkd(record)
        checks.append(Check("kkd_nonnegative", value >= 0, value, 0))
        yield AuditReport(tuple(checks))
