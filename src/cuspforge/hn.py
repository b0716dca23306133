"""Hamburger-Noether pair sequences.

A cusp (a locally irreducible plane-curve singularity) is described by a
finite sequence of pairs (c/p) of positive integers.  The *standard* form is
the unique representative satisfying

* ``p1 <= c1`` and ``p1`` does not divide ``c1``,
* ``c_{j+1} = gcd(c_j, p_j)`` for consecutive pairs,
* ``c_j != p_j`` for every pair,
* ``c_j > c_{j+1}`` strictly, with ``c_{h+1} = 1``, and ``gcd(c_h, p_h) = 1``.

The *raw* flavor keeps only the gcd-chain law and the terminal coprimality,
which is what the printed family formulas satisfy before normalization.
All integers are Python ints, so arbitrary precision comes for free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable

from .errors import DegenerateRemainder, NotReducible

STANDARD = "standard"
RAW = "raw"

_PAIR_RE = re.compile(r"(\d+)/(\d+)\Z")


@dataclass(frozen=True)
class HNPair:
    """One resolution stage (c/p); both entries are positive integers."""

    c: int
    p: int

    def __post_init__(self) -> None:
        for v in (self.c, self.p):
            # bool is an int subclass, but True/2 is no pair
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"HN pair entries must be integers, got {type(v).__name__}")
        if self.c < 1 or self.p < 1:
            raise ValueError(f"HN pair entries must be >= 1, got ({self.c}/{self.p})")

    def __str__(self) -> str:
        return f"{self.c}/{self.p}"


@dataclass(frozen=True)
class HNSequence:
    """An ordered, non-empty sequence of HN pairs with a declared flavor.

    The constructor does not enforce the flavor's axioms; use
    :func:`validate` to obtain a report, so that invalid data can be
    inspected rather than rejected at construction time.
    """

    pairs: tuple[HNPair, ...]
    flavor: str = STANDARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("an HN sequence needs at least one pair")
        if any(not isinstance(p, HNPair) for p in self.pairs):
            raise TypeError("pairs must be HNPair instances")
        if self.flavor not in (STANDARD, RAW):
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @classmethod
    def _trusted(cls, pairs: tuple[HNPair, ...], flavor: str) -> "HNSequence":
        """A sequence known to be well formed: a non-empty tuple of HNPair, a known flavor."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "pairs", pairs)
        object.__setattr__(seq, "flavor", flavor)
        return seq

    @property
    def h(self) -> int:
        """Number of pairs."""
        return len(self.pairs)

    def with_flavor(self, flavor: str) -> "HNSequence":
        """This sequence under another flavor; itself, with its report, when the flavor matches."""
        if flavor == self.flavor:
            return self
        return HNSequence(self.pairs, flavor)

    @cached_property
    def validation(self) -> "ValidationReport":
        """The report of :func:`validate`, computed once per instance."""
        return _check_axioms(self)

    def to_text(self) -> str:
        return format_hn(self)

    def __str__(self) -> str:
        return format_hn(self)

    def to_json_obj(self) -> list[list[str]]:
        """Array of two-element arrays of decimal strings."""
        return [[str(p.c), str(p.p)] for p in self.pairs]

    @classmethod
    def from_json_obj(cls, obj: Iterable, flavor: str = RAW) -> "HNSequence":
        """Pairs of decimal strings or ints; other entries reach `HNPair`, which refuses them."""
        pairs = []
        for item in obj:
            c, p = (int(v) if isinstance(v, str) else v for v in item)
            pairs.append(HNPair(c, p))
        return cls(tuple(pairs), flavor)


def parse_hn(text: str, flavor: str = RAW) -> HNSequence:
    """Parse the ``"c1/p1,c2/p2,..."`` syntax; whitespace is ignored."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty HN sequence text")
    pairs = []
    for token in compact.split(","):
        m = _PAIR_RE.match(token)
        if m is None:
            raise ValueError(f"invalid HN pair token {token!r}")
        pairs.append(HNPair(int(m.group(1)), int(m.group(2))))
    return HNSequence(tuple(pairs), flavor)


def format_hn(seq: HNSequence) -> str:
    return ",".join(f"{p.c}/{p.p}" for p in seq.pairs)


@dataclass(frozen=True)
class Violation:
    """A single failed axiom; ``index`` is the 1-based pair position."""

    axiom: str
    index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def summary(self) -> str:
        if self.ok:
            return "pass"
        return "; ".join(v.message for v in self.violations)


# every passing report is this one object: a sequence that keeps its report
# costs one reference, not a report of its own
_PASS = ValidationReport(True, ())


def validate(seq: HNSequence) -> ValidationReport:
    """Check the axioms of the sequence's declared flavor.

    Violations are data in the report, not exceptions.  Both flavors require
    the gcd-chain law and terminal coprimality; the standard flavor adds the
    head conditions, no equal pairs, and strict decrease of the c-chain down
    to ``c_{h+1} = 1``.  A sequence is immutable, so its report is computed
    once and kept on it (``HNSequence.validation``).
    """
    return seq.validation


def _check_axioms(seq: HNSequence) -> ValidationReport:
    pairs = seq.pairs
    h = len(pairs)
    bad: list[Violation] = []

    for j in range(h - 1):
        g = gcd(pairs[j].c, pairs[j].p)
        if pairs[j + 1].c != g:
            bad.append(Violation(
                "gcd_chain", j + 1,
                f"c{j + 2} = {pairs[j + 1].c} != gcd({pairs[j].c},{pairs[j].p}) = {g}"))
    if gcd(pairs[-1].c, pairs[-1].p) != 1:
        bad.append(Violation(
            "terminal_coprime", h,
            f"gcd(c{h},p{h}) = {gcd(pairs[-1].c, pairs[-1].p)} != 1"))

    if seq.flavor == STANDARD:
        c1, p1 = pairs[0].c, pairs[0].p
        if p1 > c1:
            bad.append(Violation("head_bound", 1, f"p1 = {p1} > c1 = {c1}"))
        if c1 % p1 == 0:
            bad.append(Violation("head_nondivisible", 1, f"p1 = {p1} divides c1 = {c1}"))
        for j in range(h):
            if pairs[j].c == pairs[j].p:
                bad.append(Violation("equal_pair", j + 1, f"c{j + 1} = p{j + 1} = {pairs[j].c}"))
            c_next = pairs[j + 1].c if j + 1 < h else 1
            if pairs[j].c <= c_next:
                bad.append(Violation(
                    "strict_decrease", j + 1,
                    f"c{j + 1} = {pairs[j].c} <= c{j + 2} = {c_next}"))

    return ValidationReport(False, tuple(bad)) if bad else _PASS


def require_valid(seq: HNSequence) -> None:
    """Raise ``ValueError`` when the sequence fails its flavor's validation."""
    report = validate(seq)
    if not report.ok:
        raise ValueError(f"invalid {seq.flavor} HN sequence {format_hn(seq)}: {report.summary()}")


def standardize(seq: HNSequence) -> HNSequence:
    """Rewrite a chain-consistent sequence into its unique standard form.

    Rule R1 (equal-pair absorption) replaces an adjacent ``(x/x)(x/y)`` by
    ``(x/x+y)`` at interior positions; rule R2 (head merge) replaces the
    leading ``(c1/p1)(p1/y)`` with ``p1 | c1`` by ``((c1+y)/p1)``.  R1 is
    swept right-to-left, then R2 applied once, until fixpoint.  Every rewrite
    shortens the list, so the loop terminates.  Idempotent on standard input:
    a valid standard sequence, which the standard axioms already show to be
    chain-consistent, comes back as itself.
    """
    if seq.flavor != STANDARD or not validate(seq).ok:
        require_valid(seq.with_flavor(RAW))
    pairs = list(seq.pairs)
    while True:
        changed = False
        # Head occurrences of (x/x)(x/y) belong to R2: absorbing them with R1
        # would leave (x/x+y) with p1-divides-c1 unrepairable.
        for j in range(len(pairs) - 2, 0, -1):
            left, right = pairs[j], pairs[j + 1]
            if left.c == left.p == right.c:
                pairs[j:j + 2] = [HNPair(left.c, left.c + right.p)]
                changed = True
        if len(pairs) >= 2 and pairs[0].c % pairs[0].p == 0 and pairs[1].c == pairs[0].p:
            pairs[0:2] = [HNPair(pairs[0].c + pairs[1].p, pairs[0].p)]
            changed = True
        if not changed:
            break
    if seq.flavor == STANDARD and len(pairs) == seq.h:
        out = seq   # no rewrite happened: the same pairs, and the same report
    else:
        out = HNSequence._trusted(tuple(pairs), STANDARD)
    report = validate(out)
    if not report.ok:
        raise NotReducible(
            f"fixpoint {format_hn(out)} is not standard: {report.summary()}")
    return out


def standard_form(seq: HNSequence) -> HNSequence:
    """The standard form: checked as is when declared standard, else standardized."""
    if seq.flavor == STANDARD:
        require_valid(seq)
        return seq
    return standardize(seq)


def expand_low_p(seq: HNSequence) -> HNSequence:
    """Replace every pair with p > c by its ``(c/c)``-block expansion.

    A pair (c/p) with ``q, r = divmod(p, c)`` becomes q copies of (c/c)
    followed by (c/r).  The result describes the same cusp:
    ``standardize(expand_low_p(S)) == standardize(S)``.
    """
    require_valid(seq)
    out: list[HNPair] = []
    for pair in seq.pairs:
        if pair.p > pair.c:
            q, r = divmod(pair.p, pair.c)
            if r == 0:
                if pair.c > 1:
                    raise DegenerateRemainder(
                        f"pair {pair} leaves no remainder after its ({pair.c}/{pair.c}) blocks")
                out.extend([HNPair(1, 1)] * q)
            else:
                out.extend([HNPair(pair.c, pair.c)] * q)
                out.append(HNPair(pair.c, r))
        else:
            out.append(pair)
    return HNSequence._trusted(tuple(out), RAW)
