"""The ten classified families of rational cuspidal curves with a C** fibration.

Each family is one entry of the table `_FAMILIES`: its parameter names and
the printed formulas for the curve degree, gamma = -E^2, the raw HN pairs of
each cusp and the tabulated reduced multiplicity runs of each cusp.  Only
the parameter domains live apart, in `_domain_error`.  Degenerate parameter
choices are emitted through the same uniform formulas and cleaned up by
standardization, so there is a single code path per family.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Iterable, NamedTuple

from .errors import ParamOutOfDomain
from .hn import HNPair, HNSequence, RAW, _Frozen, standardize
from .invariants import MultiplicitySequence


class _Family(NamedTuple):
    """One family's printed formulas, each a function of the parameters.

    `cusps` gives the raw HN pairs (c, p) of each cusp and `runs` the
    tabulated reduced multiplicity runs (value, count) of each cusp.
    """

    names: tuple[str, ...]
    degree: Callable[..., int]
    gamma: Callable[..., int]
    cusps: Callable[..., list[list[tuple[int, int]]]]
    runs: Callable[..., list[list[tuple[int, int]]]]


# The ten families in canonical order.
_FAMILIES = {
    "FZ1": _Family(
        ("d", "k"),
        degree=lambda d, k: d, gamma=lambda d, k: d - 2,
        cusps=lambda d, k: [[(2 * k + 1, 2)], [(d - 1, d - 2)],
                            [(2 * (d - 2 - k) + 1, 2)]],
        runs=lambda d, k: [[(2, k)], [(d - 2, 1)], [(2, d - 2 - k)]]),
    "A": _Family(
        ("gamma", "p", "s"),
        degree=lambda g, p, s: (g + 1) * p * s + 1, gamma=lambda g, p, s: g,
        cusps=lambda g, p, s: [[(p * s * (g + 1), p * s * g), (p * s, p), (p, 1)],
                               [(g * (p * s + 1) + p * (s - 1) + 1, p * s + 1)]],
        runs=lambda g, p, s: [[(g * p * s, 1), (p * s, g), (p, s)],
                              [(p * s + 1, g), (p * (s - 1) + 1, 1), (p, s - 1)]]),
    "B": _Family(
        ("gamma", "p", "s"),
        degree=lambda g, p, s: (g + 1) * p * s - g, gamma=lambda g, p, s: g,
        cusps=lambda g, p, s: [[((p * s - 1) * (g + 1), (p * s - 1) * g), (p * s - 1, p)],
                               [(p * (g * s + s - 1), p * s), (p, 1)]],
        runs=lambda g, p, s: [[(g * p * s - g, 1), (p * s - 1, g), (p, s - 1), (p - 1, 1)],
                              [(p * s, g), (p * (s - 1), 1), (p, s - 1)]]),
    "C": _Family(
        ("gamma", "p", "s"),
        degree=lambda g, p, s: (g * s + s + 1) * p + 1, gamma=lambda g, p, s: g,
        cusps=lambda g, p, s: [[(p * (g * s + s + 1), p * (g * s + 1)), (p, 1)],
                               [((g + 1) * (p * s + 1) + p, p * s + 1)]],
        runs=lambda g, p, s: [[(g * p * s + p, 1), (p * s, g), (p, s)],
                              [(p * s + 1, g + 1), (p, s)]]),
    "D": _Family(
        ("gamma", "p", "s"),
        degree=lambda g, p, s: (g * s + s + 1) * p - g, gamma=lambda g, p, s: g,
        cusps=lambda g, p, s: [[((g + 1) * (p * s - 1) + p, g * (p * s - 1) + p)],
                               [(p * (g * s + s + 1), p * s), (p, 1)]],
        runs=lambda g, p, s: [[(g * (p * s - 1) + p, 1), (p * s - 1, g), (p, s - 1),
                               (p - 1, 1)],
                              [(p * s, g + 1), (p, s)]]),
    "E": _Family(
        ("k",),
        degree=lambda k: 8 * k + 6, gamma=lambda k: 2,
        cusps=lambda k: [[(8 * k + 8, 4 * k + 2), (2, 1)],
                         [(8 * k + 4, 4 * k + 4), (4, 1)]],
        runs=lambda k: [[(4 * k + 2, 2), (4, k), (2, 2)],
                        [(4 * k + 4, 1), (4 * k, 1), (4, k)]]),
    "F": _Family(
        ("k",),
        degree=lambda k: 8 * k + 2, gamma=lambda k: 2,
        cusps=lambda k: [[(8 * k, 4 * k + 2), (2, 1)], [(8 * k + 4, 4 * k), (4, 1)]],
        runs=lambda k: [[(4 * k + 2, 1), (4 * k - 2, 1), (4, k - 1), (2, 2)],
                        [(4 * k, 2), (4, k)]]),
    "G": _Family(
        ("gamma",),
        degree=lambda g: 2 * g - 1, gamma=lambda g: g,
        cusps=lambda g: [[(4 * g - 3, g - 1)], [(2 * g - 1, 2)]],
        runs=lambda g: [[(g - 1, 4)], [(2, g - 1)]]),
    "OR1": _Family(
        ("k",),
        degree=lambda k: fibonacci(4 * k + 2), gamma=lambda k: 2,
        cusps=lambda k: [[(fibonacci(4 * k + 4), fibonacci(4 * k)), (3, 1)]],
        runs=lambda k: [_or_mult_runs(k, 1)]),
    "OR2": _Family(
        ("k",),
        degree=lambda k: 2 * fibonacci(4 * k + 2), gamma=lambda k: 2,
        cusps=lambda k: [[(2 * fibonacci(4 * k + 4), 2 * fibonacci(4 * k)), (6, 1)]],
        runs=lambda k: [_or_mult_runs(k, 2)]),
}
FAMILY_IDS = tuple(_FAMILIES)


def fibonacci(n: int) -> int:
    """F_0 = 0, F_1 = 1, computed by fast doubling."""
    if n < 0:
        raise ValueError("negative Fibonacci index")
    return _fib_pair(n)[0]


def _fib_pair(n: int) -> tuple[int, int]:
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


class FamilySpec(_Frozen):
    """A family id with its parameter tuple in declared order."""

    _fields = ("id", "params")
    id: str
    params: tuple[int, ...]

    def __init__(self, id: str, params: Iterable[int]) -> None:
        if id not in _FAMILIES:
            raise ValueError(f"unknown family {id!r}")
        params = tuple(map(index, params))
        names = _FAMILIES[id].names
        if len(params) != len(names):
            raise ValueError(
                f"{id} takes parameters {names}, got {len(params)} values")
        self._fill(id, params)

    def named(self) -> dict[str, int]:
        return dict(zip(_FAMILIES[self.id].names, self.params))

    def __str__(self) -> str:
        return f"{self.id}({','.join(str(v) for v in self.params)})"

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "params": {k: str(v) for k, v in self.named().items()},
        }


def check_domain(spec: FamilySpec) -> None:
    """Raise ParamOutOfDomain naming the violated inequality."""
    error = _domain_error(spec.id, spec.params)
    if error is not None:
        raise ParamOutOfDomain(error)


def _domain_error(fid: str, params: tuple[int, ...]) -> str | None:
    """The first violated inequality of the family's domain, or None inside it."""
    if fid == "FZ1":
        d, k = params
        lo = (d + 1) // 2 - 1
        if lo < 1:
            return f"FZ1 requires ceil(d/2)-1 >= 1, got d = {d}"
        if k < lo:
            return f"FZ1 requires k >= ceil(d/2)-1 = {lo}, got k = {k}"
        if k > d - 3:
            return f"FZ1 requires k <= d-3 = {d - 3}, got k = {k}"
    elif fid in ("A", "B", "C", "D"):
        g, p, s = params
        if g < 1:
            return f"{fid} requires gamma >= 1, got gamma = {g}"
        if p < 2:
            return f"{fid} requires p >= 2, got p = {p}"
        s_min = 2 if fid == "B" else 1
        if s < s_min:
            return f"{fid} requires s >= {s_min}, got s = {s}"
        if fid in ("A", "B") and (g, p) == (1, 2):
            return f"{fid} excludes (gamma,p) = (1,2)"
    elif fid == "G":
        if params[0] < 3:
            return f"G requires gamma >= 3, got gamma = {params[0]}"
    elif params[0] < 1:
        return f"{fid} requires k >= 1, got k = {params[0]}"
    return None


class CurveRecord(_Frozen):
    """A rational cuspidal plane curve: degree, gamma = -E^2, and its cusps.

    Each cusp is kept both as the raw printed HN sequence and its standard
    form.  The shape constraints (degree >= 3, gamma >= 1, one to three
    cusps) are enforced only for family-generated records, so deliberately
    inconsistent records can still be built for audit failure tests.
    """

    _fields = ("degree", "gamma", "cusps", "family")
    degree: int
    gamma: int
    cusps: tuple[tuple[HNSequence, HNSequence], ...]
    family: FamilySpec | None

    def __init__(self, degree: int, gamma: int,
                 cusps: tuple[tuple[HNSequence, HNSequence], ...],
                 family: FamilySpec | None = None) -> None:
        if family is not None:
            if degree < 3:
                raise ValueError(f"family curve degree {degree} < 3")
            if gamma < 1:
                raise ValueError(f"family curve gamma {gamma} < 1")
            if not 1 <= len(cusps) <= 3:
                raise ValueError(f"family curve with {len(cusps)} cusps")
        self._fill(degree, gamma, cusps, family)

    @classmethod
    def from_cusps(cls, degree, gamma, seqs, family=None) -> "CurveRecord":
        cusps = tuple((seq, standardize(seq)) for seq in seqs)
        return cls(degree=index(degree), gamma=index(gamma), cusps=cusps, family=family)

    @property
    def standard_cusps(self) -> tuple[HNSequence, ...]:
        return tuple(std for _, std in self.cusps)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family.to_json_obj() if self.family else None,
            "degree": str(self.degree),
            "gamma": str(self.gamma),
            "cusps": [
                {"raw": raw.to_json_obj(), "standard": std.to_json_obj()}
                for raw, std in self.cusps
            ],
        }


def generate(spec: FamilySpec) -> CurveRecord:
    """Emit the raw printed cusps plus their standard forms for one instance."""
    check_domain(spec)
    return _build(spec, {})


def _build(spec: FamilySpec, table: dict) -> CurveRecord:
    """The record of an admissible instance, its cusps taken from table.

    The table maps the raw pairs (c, p) of a cusp, as the family formula
    gives them, to its (raw, standard) sequence pair; a cusp missing from
    it is built, validated and standardized, then entered.
    """
    family, params = _FAMILIES[spec.id], spec.params
    cusps = []
    for pairs in family.cusps(*params):
        key = tuple(pairs)
        cusp = table.get(key)
        if cusp is None:
            raw = HNSequence(tuple(HNPair(c, p) for c, p in pairs), RAW)
            cusp = table[key] = (raw, standardize(raw))
        cusps.append(cusp)
    return CurveRecord(degree=index(family.degree(*params)),
                       gamma=index(family.gamma(*params)),
                       cusps=tuple(cusps), family=spec)


def enumerate_curves(max_degree: int) -> list[CurveRecord]:
    """Every family instance of degree at most max_degree, exactly once.

    Each distinct raw cusp is built and standardized once per call, and the
    records that carry it share its two sequences; no call shares them with
    another.

    Order: family id (FZ1, A, B, C, D, E, F, G, OR1, OR2), then parameters
    ascending lexicographically.  One sweep serves every family; it rests
    on three facts about the degrees and domains, each checked by a test:

    1. every admissible parameter is at least 1 and at most the degree, so
       each parameter runs over 1..max_degree at most;
    2. the degree never falls when a parameter rises, over all positive
       tuples, so the degree with the later parameters at 1 bounds every
       completion of a prefix from below and the sweep of a parameter
       stops at the first overflow;
    3. for fixed earlier parameters the admissible values of the last
       parameter form one interval, so its sweep stops at the first value
       refused after one admitted.
    """
    table: dict = {}
    return [_build(FamilySpec(fid, params), table)
            for fid in FAMILY_IDS for params in _sweep(fid, (), max_degree)]


def _sweep(fid: str, prefix: tuple[int, ...], max_degree: int):
    """Admissible parameter tuples extending prefix of degree <= max_degree, ascending."""
    names, degree = _FAMILIES[fid].names, _FAMILIES[fid].degree
    rest = len(names) - len(prefix) - 1
    admitted = False
    for v in range(1, max_degree + 1):
        params = prefix + (v,)
        if degree(*params, *(1,) * rest) > max_degree:
            return
        if rest:
            yield from _sweep(fid, params, max_degree)
        elif _domain_error(fid, params) is None:
            admitted = True
            yield params
        elif admitted:
            return


class DistinctnessReport(_Frozen):
    _fields = ("total", "collisions")
    total: int
    collisions: tuple[tuple[CurveRecord, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.collisions


def _cusp_key(record: CurveRecord):
    return tuple(sorted(
        tuple((pr.c, pr.p) for pr in std.pairs) for _, std in record.cusps))


def distinctness_audit(records) -> DistinctnessReport:
    """Group records by their multiset of standardized cusps; report clashes."""
    groups: dict = {}
    total = 0
    for rec in records:
        total += 1
        groups.setdefault(_cusp_key(rec), []).append(rec)
    collisions = tuple(
        tuple(group) for _, group in sorted(groups.items()) if len(group) >= 2)
    return DistinctnessReport(total=total, collisions=collisions)


def expected_reduced_multiplicities(spec: FamilySpec) -> tuple[MultiplicitySequence, ...]:
    """The tabulated reduced multiplicity sequences, one per cusp.

    The run formulas may produce empty runs or trailing 1s at boundary
    parameters; those are dropped, matching the reduced form convention.
    """
    check_domain(spec)
    return tuple(MultiplicitySequence.from_runs((v, n) for v, n in runs if v > 1)
                 for runs in _FAMILIES[spec.id].runs(*spec.params))


def _or_mult_runs(k: int, scale: int) -> list[tuple[int, int]]:
    runs = [(scale * fibonacci(4 * k), 1)]
    for l in range(k, 0, -1):
        runs.append((scale * fibonacci(4 * l), 5))
        runs.append((scale * (fibonacci(4 * l) - fibonacci(4 * l - 4)), 1))
    return runs

