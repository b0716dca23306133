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

from functools import cached_property
from math import gcd
from typing import Iterable

from .errors import DegenerateRemainder, NotReducible

STANDARD = "standard"
RAW = "raw"


def _is_digits(text: str) -> bool:
    """True for a non-empty string of ASCII decimal digits: the integers of every text format."""
    return text.isascii() and text.isdigit()


# writes past `_Frozen.__setattr__`: the compiled setters, derived values, seeded caches
_set = object.__setattr__


class _Frozen:
    """Base of the package's value classes: immutable, equal and hashed by fields.

    A subclass names its fields in order in `_fields`, and only `_Frozen`
    writes them, through the setter `_fill(self, <fields>)` it compiles for
    each class.  A class with a hand-written `__init__` (its own or a
    base's) validates and then calls `self._fill(...)` once; it also gets
    the classmethod `_trusted(cls, <fields>)`, which builds an instance
    from fields known to be valid and checks nothing.  A plain record's
    `__init__` is its `_fill`: positional or keyword, no defaults.  Two
    instances are equal when they are of the same class and their field
    tuples are equal, and the hash is the hash of that tuple.  Attributes
    outside `_fields` (derived values and caches) take no part in equality,
    hashing or repr.  Assigning or deleting an attribute raises
    AttributeError.  The state is the instance `__dict__`, which pickle
    writes and restores without calling `__init__`.

    `_fill`, `_trusted`, `__eq__` and `__hash__` come from one `exec` per
    class, so each field is a plain `_set` call or attribute load: a
    generic `_trusted(cls, *values)` or `operator.attrgetter` costs more per
    call, and a cusp's pairs are hashed on every audit cache lookup.  A
    class that defines its own `__eq__` keeps both of its own.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = names = cls._fields
        params = "".join(f", {name}" for name in names)
        sets = "".join(f"\n _set(self, {name!r}, {name})" for name in names)
        source = f"def _fill(self{params}):{sets}\n"
        # an inherited compiled `__init__` (from "<string>") may name other fields
        plain = cls.__init__ is object.__init__ or cls.__init__.__code__.co_filename == "<string>"
        if not plain:
            source += f"def _trusted(cls{params}):\n self = object.__new__(cls){sets}\n return self\n"
        if "__eq__" not in vars(cls):
            mine = "".join(f"self.{name}," for name in names)
            theirs = mine.replace("self.", "other.")
            source += (f"def __eq__(self, other): return ({mine}) == ({theirs})"
                       f" if other.__class__ is self.__class__ else NotImplemented\n"
                       f"def __hash__(self): return hash(({mine}))\n")
        scope = {}
        exec(source, globals(), scope)
        if plain:
            scope["__init__"] = scope["_fill"]   # named last, so its qualname is `Cls.__init__`
        for name, function in scope.items():
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, classmethod(function) if name == "_trusted" else function)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class HNPair(_Frozen):
    """One resolution stage (c/p); both entries are positive integers."""

    _fields = ("c", "p")
    c: int
    p: int

    def __init__(self, c: int, p: int) -> None:
        for v in (c, p):
            # bool is an int subclass, but True/2 is no pair
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"HN pair entries must be integers, got {type(v).__name__}")
        if c < 1 or p < 1:
            raise ValueError(f"HN pair entries must be >= 1, got ({c}/{p})")
        self._fill(c, p)

    def __str__(self) -> str:
        return f"{self.c}/{self.p}"


class HNSequence(_Frozen):
    """An ordered, non-empty sequence of HN pairs with a declared flavor.

    The constructor does not enforce the flavor's axioms; use
    :func:`validate` to obtain a report, so that invalid data can be
    inspected rather than rejected at construction time.
    """

    _fields = ("pairs", "flavor")
    pairs: tuple[HNPair, ...]
    flavor: str

    def __init__(self, pairs: Iterable[HNPair], flavor: str = STANDARD) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("an HN sequence needs at least one pair")
        if any(not isinstance(p, HNPair) for p in pairs):
            raise TypeError("pairs must be HNPair instances")
        if flavor not in (STANDARD, RAW):
            raise ValueError(f"unknown flavor {flavor!r}")
        self._fill(pairs, flavor)

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
        """Two-entry lists or tuples of ints or ASCII decimal strings, as `to_json_obj` writes."""
        pairs = []
        for item in obj:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise TypeError(f"an HN pair must be a two-entry array, got {item!r}")
            if any(isinstance(v, str) and not _is_digits(v) for v in item):
                raise ValueError(f"HN pair entries must be decimal digits, got {item!r}")
            # other entries reach HNPair, which refuses them
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
        c, sep, p = token.partition("/")
        if not (sep and _is_digits(c) and _is_digits(p)):
            raise ValueError(f"invalid HN pair token {token!r}")
        pairs.append(HNPair(int(c), int(p)))
    return HNSequence(tuple(pairs), flavor)


def format_hn(seq: HNSequence) -> str:
    return ",".join(f"{p.c}/{p.p}" for p in seq.pairs)


class Violation(_Frozen):
    """A single failed axiom; ``index`` is the 1-based pair position."""

    _fields = ("axiom", "index", "message")
    axiom: str
    index: int
    message: str


class ValidationReport(_Frozen):
    _fields = ("ok", "violations")
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
    leading ``(c1/p1)(p1/y)`` with ``p1 | c1`` by ``((c1+y)/p1)``.  One
    right-to-left R1 sweep, then R2 while it applies, is the fixpoint: an R1
    merge (x/x+y) is never (x/x), and its left neighbour is examined next;
    R2 touches only the head, where R1 never applies (tests/test_proofs.py
    holds the proof).  Idempotent on standard input: a valid standard
    sequence, which the standard axioms already show to be chain-consistent,
    comes back as itself.
    """
    if seq.flavor != STANDARD or not validate(seq).ok:
        require_valid(seq.with_flavor(RAW))
    pairs = list(seq.pairs)
    # Head occurrences of (x/x)(x/y) belong to R2: absorbing them with R1
    # would leave (x/x+y) with p1-divides-c1 unrepairable.
    for j in range(len(pairs) - 2, 0, -1):
        left, right = pairs[j], pairs[j + 1]
        if left.c == left.p == right.c:
            pairs[j:j + 2] = [HNPair(left.c, left.c + right.p)]
    while len(pairs) >= 2 and pairs[0].c % pairs[0].p == 0 and pairs[1].c == pairs[0].p:
        pairs[0:2] = [HNPair(pairs[0].c + pairs[1].p, pairs[0].p)]
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
