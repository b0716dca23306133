"""Numerical characterizations of a cusp and conversions between them.

Supported descriptions: HN pair sequences, multiplicity sequences, the
Puiseux characteristic (beta0; beta1, ..., beta_g), Puiseux pairs, Zariski
pairs, the value semigroup with its gap set, and the Alexander polynomial.
All conversions are exact integer arithmetic; multiplicities are stored
run-length encoded because family formulas produce long constant runs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from math import gcd
from operator import index, sub
from typing import Iterable, Iterator

from .errors import NotRealizable
from .hn import (
    HNPair,
    HNSequence,
    STANDARD,
    _Frozen,
    _compact,
    _is_digits,
    _set,
    format_hn,
    require_valid,
    standard_form,
    standardize,
)

REDUCED = "reduced"
FULL = "full"

PUISEUX = "puiseux"
ZARISKI = "zariski"

_PIECE = 1 << 12    # items per piece of streamed output


def _spans(start: int, count: int):
    """(start, count) cut into (first, size) pieces of at most _PIECE items."""
    for first in range(start, start + count, _PIECE):
        yield first, min(_PIECE, start + count - first)


_I, _J = "\x00", "\x01"    # in a numbered item: the id i and the id i + 1


def _numbered(item: str, sep: str, first: int, count: int,
              blocks: dict[str, list[list[str]]]) -> str:
    """`item` for each id i from `first` on, `count` of them, joined by `sep`.

    _I in `item` stands for i and _J for i + 1; neither may occur in `sep`.
    From 100 on, each aligned block of 100 ids shares its leading digits,
    so a block is written from one template of the last two digits, in
    which _I stands for the leading digits of i and _J for those of the
    block's last i + 1.  The template is kept in `blocks` under `item`
    (one dict per `sep`) cut at its markers, and a block is its cuts
    joined with those digits: two `str.join` calls, about twice as fast as
    `str.replace` on the whole block.  A range that starts or ends inside
    a block is sliced out of the whole block, in which every item but the
    last has the same length.  Ids below 100 are written one by one.
    """
    end = first + count
    low = min(max(first, 100), end)    # the first id written from a block
    texts = [item.replace(_I, str(i)).replace(_J, str(i + 1)) for i in range(first, low)]
    if low < end:
        cuts = blocks.get(item)
        if cuts is None:
            block = sep.join([
                item.replace(_I, f"{_I}{d:02}").replace(_J, f"{_I}{d + 1:02}")
                for d in range(99)] + [item.replace(_I, f"{_I}99").replace(_J, f"{_J}00")])
            cuts = blocks[item] = [text.split(_I) for text in block.split(_J)]
        p, q = low // 100, (end - 1) // 100    # the first and the last block
        run = [str(k + 1).join([str(k).join(cut) for cut in cuts]) for k in range(p, q + 1)]
        # an item and `sep` in block k take size + marks * len(str(k)) characters
        marks = item.count(_I) + item.count(_J)
        size = len(item) + len(sep) + marks
        if end % 100:
            run[-1] = run[-1][:end % 100 * (size + marks * len(str(q))) - len(sep)]
        run[0] = run[0][low % 100 * (size + marks * len(str(p))):]
        texts += run
    return sep.join(texts)


def _run_texts(runs, fmt: str, sep: str) -> Iterator[str]:
    """The items of (value, count) runs as `fmt` texts joined by `sep`, in pieces."""
    for value, count in runs:
        item = fmt.format(value)
        for _, size in _spans(0, count):
            yield sep.join(repeat(item, size))


class MultiplicitySequence(_Frozen, trusted=True):
    """Non-increasing multiplicity sequence, held as (value, count) runs.

    The reduced form drops trailing 1s (so it is empty for a smooth point);
    the full form keeps them and ends in 1.
    """

    _fields = ("runs", "form")
    runs: tuple[tuple[int, int], ...]
    form: str

    def __init__(self, runs: Iterable[tuple[int, int]], form: str = REDUCED) -> None:
        runs = tuple((index(v), index(n)) for v, n in runs)
        if form not in (REDUCED, FULL):
            raise ValueError(f"unknown multiplicity form {form!r}")
        for v, n in runs:
            if v < 1 or n < 1:
                raise ValueError(f"bad multiplicity run ({v},{n})")
        values = [v for v, _ in runs]
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("multiplicity runs must have strictly decreasing values")
        if form == REDUCED and runs and values[-1] == 1:
            raise ValueError("reduced multiplicity sequence must not end in 1")
        if form == FULL and (not runs or values[-1] != 1):
            raise ValueError("full multiplicity sequence must end in 1")
        self._fill(runs, form)

    @classmethod
    def from_entries(cls, entries: Iterable[int], form: str = REDUCED) -> "MultiplicitySequence":
        return cls(_merge_runs((index(e), 1) for e in entries), form)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]], form: str = REDUCED) -> "MultiplicitySequence":
        return cls(_merge_runs((index(v), index(n)) for v, n in runs), form)

    def entries(self) -> tuple[int, ...]:
        out: list[int] = []
        for v, n in self.runs:
            out.extend([v] * n)
        return tuple(out)

    def reduced(self) -> "MultiplicitySequence":
        if self.form == REDUCED:
            return self
        # a full sequence is non-empty and ends in its 1-run
        return MultiplicitySequence._trusted(self.runs[:-1], REDUCED)

    def full(self) -> "MultiplicitySequence":
        """Append the trailing 1-run; its length is the last entry above 1."""
        if self.form == FULL:
            return self
        if not self.runs:
            raise NotRealizable("a smooth point has no full multiplicity sequence")
        return MultiplicitySequence._trusted(self.runs + ((1, self.runs[-1][0]),), FULL)

    def total(self) -> int:
        return sum(v * n for v, n in self.runs)

    def to_text(self) -> str:
        # one list, not pieces: a run too long to list raises MemoryError at once
        texts: list[str] = []
        for v, n in self.runs:
            texts.extend([str(v)] * n)
        return ",".join(texts)

    def __str__(self) -> str:
        return self.to_text()


def _merge_runs(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    merged: list[list[int]] = []
    for v, n in runs:
        if n == 0:
            continue
        if merged and merged[-1][0] == v:
            merged[-1][1] += n
        else:
            merged.append([v, n])
    return tuple((v, n) for v, n in merged)


def parse_multiplicity(text: str, form: str = REDUCED) -> MultiplicitySequence:
    """Parse the comma-separated entry syntax, e.g. ``"4,2,2,2"``."""
    compact = _compact(text)
    entries = []
    for token in compact.split(","):
        if not _is_digits(token):
            raise ValueError(f"invalid multiplicity entry {token!r}")
        entries.append(int(token))
    return MultiplicitySequence.from_entries(entries, form)


class PuiseuxCharacteristic(_Frozen):
    """The exponent tuple (beta0; beta1, ..., beta_g) of a cusp branch.

    The divisor chain e_0 = beta0, e_i = gcd(e_{i-1}, beta_i) must strictly
    decrease to e_g = 1; it is precomputed and cached in ``e``, which is no
    field.
    """

    _fields = ("beta",)
    beta: tuple[int, ...]
    e: tuple[int, ...]

    def __init__(self, beta: Iterable[int]) -> None:
        beta = tuple(map(index, beta))
        if len(beta) < 2:
            raise ValueError("a Puiseux characteristic needs beta0 and at least beta1")
        if beta[0] < 2:
            raise ValueError(f"beta0 = {beta[0]} must be >= 2")
        if any(a >= b for a, b in zip(beta, beta[1:])):
            raise ValueError(f"characteristic exponents must strictly increase: {beta}")
        e = [beta[0]]
        for i in range(1, len(beta)):
            if beta[i] % e[-1] == 0:
                raise ValueError(f"e{i - 1} = {e[-1]} divides beta{i} = {beta[i]}")
            e.append(gcd(e[-1], beta[i]))
        if e[-1] != 1:
            raise ValueError(f"gcd chain ends at e_g = {e[-1]} != 1")
        self._fill(beta)
        _set(self, "e", tuple(e))

    @property
    def g(self) -> int:
        return len(self.beta) - 1

    def to_text(self) -> str:
        return f"{self.beta[0]};" + ",".join(str(b) for b in self.beta[1:])

    def __str__(self) -> str:
        return self.to_text()


def parse_puiseux_char(text: str) -> PuiseuxCharacteristic:
    """Parse the ``"beta0;beta1,beta2,..."`` syntax, e.g. ``"4;6,9"``."""
    compact = _compact(text)
    head, sep, tail = compact.partition(";")
    if not sep:
        raise ValueError(f"missing ';' after beta0 in {text!r}")
    tokens = [head] + tail.split(",")
    bad = next((t for t in tokens if not _is_digits(t)), None)
    if bad is not None:
        raise ValueError(f"invalid characteristic exponent {bad!r}")
    return PuiseuxCharacteristic(tuple(int(t) for t in tokens))


class PairList(_Frozen):
    """Puiseux pairs (m_i, n_i) or Zariski pairs (b_i, a_i), in branch order."""

    _fields = ("kind", "pairs")
    kind: str
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, kind: str, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = tuple((index(x), index(y)) for x, y in pairs)
        if kind not in (PUISEUX, ZARISKI):
            raise ValueError(f"unknown pair-list kind {kind!r}")
        if not pairs:
            raise ValueError("pair list must be non-empty")
        if kind == PUISEUX:
            for m, n in pairs:
                if n < 2:
                    raise ValueError(f"Puiseux pair ({m},{n}) needs n >= 2")
                if m < 1:
                    raise ValueError(f"Puiseux pair ({m},{n}) needs m >= 1")
                if gcd(m, n) != 1:
                    raise ValueError(f"Puiseux pair ({m},{n}) must be coprime")
            if pairs[0][0] <= pairs[0][1]:
                raise ValueError(f"first Puiseux pair {pairs[0]} needs m1 > n1")
        else:
            for b, a in pairs:
                if b < 2:
                    raise ValueError(f"Zariski pair ({b},{a}) needs b >= 2")
                if a < 1:
                    raise ValueError(f"Zariski pair ({b},{a}) needs a >= 1")
                if gcd(a, b) != 1:
                    raise ValueError(f"Zariski pair ({b},{a}) must be coprime")
            if pairs[0][1] <= pairs[0][0]:
                raise ValueError(f"first Zariski pair {pairs[0]} needs a1 > b1")
        self._fill(kind, pairs)

    def to_text(self) -> str:
        return ",".join(f"({x},{y})" for x, y in self.pairs)

    def __str__(self) -> str:
        return self.to_text()


class Semigroup(_Frozen):
    """Value semigroup of a plane branch, given by telescopic generators.

    The generators (b0, b1, ..., b_g) must be telescopic in the given order:
    the gcd chain e_i = gcd(b0, ..., b_i) strictly decreases to e_g = 1, and
    n_i * b_i lies in <b0, ..., b_{i-1}> for n_i = e_{i-1}/e_i.
    ``semigroup_of`` gives such generators for every plane branch.  The
    semigroup is then symmetric, and every integer n has a unique normal
    form n = a_0*b0 + sum of a_i*b_i with 0 <= a_i < n_i (i >= 1); n lies
    in the semigroup exactly when a_0 >= 0.

    Conductor, membership and the gap count cost O(g) bigint operations
    and never build the membership table.  The gap set, the sorted gap
    listing and the Alexander polynomial read that table: one byte
    [k in S] for each 0 <= k <= conductor, built on first use from the
    b0 Apery elements with one C-level slice assignment each, so it costs
    conductor + 1 bytes and O(b0) Python steps.  `_gap_texts` and
    `_alexander_texts` write both as text from it, with no object per entry.
    """

    _fields = ("generators",)
    generators: tuple[int, ...]
    # least n with every integer >= n in the semigroup:
    # sum of (n_i - 1) * b_i over i >= 1, minus b0, plus 1; no field
    conductor: int
    # (b_i, e_i, n_i, inverse of b_i/e_i mod n_i) for i = 1..g; no field
    _levels: tuple[tuple[int, int, int, int], ...]

    def __init__(self, generators: Iterable[int]) -> None:
        gens = tuple(map(index, generators))
        if not gens or any(v < 1 for v in gens):
            raise ValueError("generators must be positive integers")
        levels: list[tuple[int, int, int, int]] = []
        e = gens[0]
        for i, b in enumerate(gens[1:], start=1):
            e_next = gcd(e, b)
            if e_next == e:
                raise ValueError(
                    f"generators {gens} are not telescopic: e{i} = e{i - 1} = {e}")
            n = e // e_next
            if _normal_remainder(n * b, levels) < 0:
                raise ValueError(
                    f"generators {gens} are not telescopic: "
                    f"{n}*{b} is not in <{','.join(map(str, gens[:i]))}>")
            levels.append((b, e_next, n, pow(b // e_next, -1, n)))
            e = e_next
        if e != 1:
            raise ValueError(f"generators {gens} have gcd {e} != 1")
        self._fill(gens)
        _set(self, "_levels", tuple(levels))
        _set(self, "conductor", sum((n - 1) * b for b, _, n, _ in levels) - gens[0] + 1)

    @property
    def gap_count(self) -> int:
        """Number of gaps: half the conductor, by symmetry."""
        return self.conductor // 2

    @cached_property
    def _members(self) -> bytes:
        """[k in S] for 0 <= k <= conductor, read off the Apery set of b0.

        The Apery set is the b0 normal-form sums with a_0 = 0; each element
        w is the least member of its class mod b0, so the members are w,
        w + b0, w + 2*b0, ... and the gaps lie below w.
        Sized first: a conductor past an index raises OverflowError before the Apery list.
        The table starts as `bytearray(size)`, since a failed `bytearray * count`
        frees a half-built object and may print a SystemError (CPython 3.11).
        """
        top = self.conductor
        table = bytearray(top + 1)
        b0 = self.generators[0]
        apery = [0]
        for b, _, n, _ in self._levels:
            apery = [w + a * b for a in range(n) for w in apery]
        ones = memoryview(b"\x01" * (top // b0 + 1))
        for w in apery:
            table[w::b0] = ones[:len(range(w, top + 1, b0))]
        return bytes(table)

    @cached_property
    def gaps(self) -> frozenset[int]:
        """Complement in the naturals."""
        return frozenset(compress(range(self.conductor), self._members.translate(_NOT)))

    def _gap_texts(self, sep: str) -> Iterator[str]:
        """The gaps in increasing order joined by `sep`, per table piece that has one."""
        members = self._members
        for lo, size in _spans(0, self.conductor):
            gaps = tuple(compress(range(lo, lo + size), members[lo:lo + size].translate(_NOT)))
            if gaps:
                yield sep.join(repeat("%d", len(gaps))) % gaps

    def _alexander_texts(self, sep: str) -> Iterator[str]:
        """The coefficients of `alexander_polynomial` joined by `sep` (with no "n"), per piece.

        Table bytes are 0 or 1, so adding the big-endian integers of [k in S]
        and 2*[k-1 in S] carries nothing: its bytes are codes for a_k.
        """
        members = self._members
        for lo, size in _spans(0, len(members)):
            codes = (int.from_bytes(members[lo:lo + size], "big")
                     + (int.from_bytes(members[max(lo - 1, 0):lo + size - 1], "big") << 1))
            yield sep.join(codes.to_bytes(size, "big").translate(_CODE).decode()).replace("n", "-1")

    def __contains__(self, n: int) -> bool:
        return _normal_remainder(n, self._levels) >= 0


# maps the byte [k in S] to [k not in S]
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# maps the code byte [k in S] + 2*[k-1 in S] to the text of a_k, "n" for -1
_CODE = bytes.maketrans(b"\x00\x01\x02\x03", b"01n0")


def _normal_remainder(x: int, levels) -> int:
    """a_0 * b0 in the normal form of x over the generators behind `levels`.

    Going down from the top level i, x is a multiple of e_i, and a_i is the
    one residue mod n_i with a_i * b_i congruent to x mod e_{i-1}.
    """
    for b, e, n, inverse in reversed(levels):
        x -= (x // e) * inverse % n * b
    return x


def hn_to_multiplicity(seq: HNSequence, form: str = REDUCED) -> MultiplicitySequence:
    """Concatenate the Euclidean expansions of the pairs.

    Each pair (c/p) contributes the quotient-run sequence of the Euclidean
    algorithm on (max, min); the gcd-chain law makes consecutive pairs'
    contributions join into one non-increasing sequence, whose only equal
    neighbours are a pair's last value and the next pair's first, merged
    here.  Terminal coprimality ends it in 1, so it is a valid full sequence.
    """
    require_valid(seq)
    runs: list[tuple[int, int]] = []
    for pair in seq.pairs:
        a, b = max(pair.c, pair.p), min(pair.c, pair.p)
        while True:
            q, r = divmod(a, b)
            if runs and runs[-1][0] == b:
                runs[-1] = (b, runs[-1][1] + q)
            else:
                runs.append((b, q))
            if r == 0:
                break
            a, b = b, r
    full = MultiplicitySequence._trusted(tuple(runs), FULL)
    return full if form == FULL else full.reduced()


def multiplicity_to_standard_hn(mult: MultiplicitySequence) -> HNSequence:
    """Rebuild the standard HN sequence whose multiplicity sequence this is.

    The first pair is (u1*mu1 + mu2 / mu1); each later c_j is the running
    gcd and p_j is read off the run table at the position where c_j occurs.
    A candidate that passes the gcd chain and p > 0 checks is standard by
    construction (tests/test_proofs.py holds the proof), and the round trip
    refuses one that does not reproduce the input, so any sequence not
    produced by a cusp raises NotRealizable.
    """
    full = mult.full()
    runs = full.runs
    if len(runs) < 2:
        raise NotRealizable("multiplicity sequence of a smooth point")
    values = [v for v, _ in runs]
    counts = [n for _, n in runs]
    index_of = {v: i for i, v in enumerate(values)}

    pairs = [HNPair(counts[0] * values[0] + values[1], values[0])]
    prev = 0
    while True:
        g = gcd(pairs[-1].c, pairs[-1].p)
        if g == 1:
            break
        i = index_of.get(g)
        if i is None or i <= prev or i > len(runs) - 2:
            raise NotRealizable(
                f"gcd chain hits {g}, which has no interior run in {full.to_text()}")
        p_next = values[i + 1] + counts[i] * values[i] - values[i - 1]
        if p_next <= 0:
            raise NotRealizable(f"recursion yields non-positive p = {p_next}")
        pairs.append(HNPair(g, p_next))
        prev = i

    seq = HNSequence._trusted(tuple(pairs), STANDARD)
    if hn_to_multiplicity(seq, FULL) != full:
        raise NotRealizable(
            f"candidate {format_hn(seq)} does not reproduce {full.to_text()}")
    return seq


def hn_to_puiseux_char(seq: HNSequence) -> PuiseuxCharacteristic:
    """beta0 = p1, beta1 = c1, beta_i = beta_{i-1} + p_i; g = h."""
    if seq.flavor != STANDARD:
        raise ValueError("Puiseux characteristic is read off the standard form")
    require_valid(seq)
    beta = [seq.pairs[0].p, seq.pairs[0].c]
    for pair in seq.pairs[1:]:
        beta.append(beta[-1] + pair.p)
    return PuiseuxCharacteristic(tuple(beta))


def puiseux_char_to_standard_hn(char: PuiseuxCharacteristic) -> HNSequence:
    """Exact inverse of hn_to_puiseux_char: p_i are consecutive differences."""
    beta = char.beta
    pairs = [HNPair(beta[1], beta[0])]
    for i in range(2, len(beta)):
        c_i = gcd(pairs[-1].c, pairs[-1].p)
        pairs.append(HNPair(c_i, beta[i] - beta[i - 1]))
    return HNSequence._trusted(tuple(pairs), STANDARD)


def char_to_puiseux_pairs(char: PuiseuxCharacteristic) -> PairList:
    """(m_i, n_i) = (beta_i/e_i, e_{i-1}/e_i); divisions are exact."""
    pairs = []
    for i in range(1, len(char.beta)):
        pairs.append((char.beta[i] // char.e[i], char.e[i - 1] // char.e[i]))
    return PairList(PUISEUX, tuple(pairs))


def puiseux_pairs_to_char(pairs: PairList) -> PuiseuxCharacteristic:
    """beta0 is the product of the n_i; beta_i = m_i * n_{i+1} * ... * n_g."""
    if pairs.kind != PUISEUX:
        raise ValueError(f"expected puiseux pairs, got {pairs.kind}")
    tail = 1
    beta_rev = []
    for m, n in reversed(pairs.pairs):
        beta_rev.append(m * tail)
        tail *= n
    beta = (tail,) + tuple(reversed(beta_rev))
    return PuiseuxCharacteristic(beta)


def zariski_from_hn(seq: HNSequence) -> PairList:
    """Divide the standard pairs through by the c-chain: (b_i, a_i) per stage."""
    if seq.flavor != STANDARD:
        raise ValueError("Zariski pairs are read off the standard form")
    require_valid(seq)
    pairs = seq.pairs
    stages = [(pairs[0].p, pairs[0].c)] + [(q.c, q.p) for q in pairs[1:]]
    # stage k divides exactly by c_{k+1} = gcd(c_k, p_k), and the last by 1
    cuts = [q.c for q in pairs[1:]] + [1]
    return PairList(ZARISKI, tuple((b // d, a // d) for (b, a), d in zip(stages, cuts)))


def hn_from_zariski(pairs: PairList) -> HNSequence:
    """Multiply the Zariski pairs back up by suffix products of the b_i."""
    if pairs.kind != ZARISKI:
        raise ValueError(f"expected zariski pairs, got {pairs.kind}")
    bs = [b for b, _ in pairs.pairs]
    as_ = [a for _, a in pairs.pairs]
    h = len(bs)
    # suffix[k] = b_{k+1} * ... * b_h (1-based), so suffix[h] = 1
    suffix = [1] * (h + 1)
    for k in range(h - 1, -1, -1):
        suffix[k] = bs[k] * suffix[k + 1]
    hn_pairs = [HNPair(as_[0] * suffix[1], bs[0] * suffix[1])]
    for k in range(1, h):
        hn_pairs.append(HNPair(suffix[k], as_[k] * suffix[k + 1]))
    return HNSequence._trusted(tuple(hn_pairs), STANDARD)


def char_to_multiplicity(char: PuiseuxCharacteristic) -> MultiplicitySequence:
    """The full multiplicity sequence, through the standard HN form."""
    return hn_to_multiplicity(puiseux_char_to_standard_hn(char), FULL)


def semigroup_of(char: PuiseuxCharacteristic) -> Semigroup:
    """Generators by the divided-sum recursion over the gcd chain."""
    beta, e = char.beta, char.e
    gens = [beta[0]]
    acc = beta[0] * beta[1]
    for l in range(char.g):
        if l >= 1:
            acc += e[l] * (beta[l + 1] - beta[l])
        # exact: beta0 and every e_j with j <= l are multiples of e_l
        gens.append(acc // e[l])
    return Semigroup(tuple(gens))


def alexander_polynomial(sg: Semigroup) -> tuple[int, ...]:
    """Coefficients of (1 - t) * (sum of t^k over the semigroup), cut at t^conductor.

    Low degree first: a_k = [k in S] - [k-1 in S], with -1 not in S, so
    a_0 = 1 and every a_k is -1, 0 or 1.  This equals 1 + (t-1) * (sum of
    t^k over the gaps); the degree is the conductor.
    """
    members = sg._members
    return tuple(map(sub, members, bytes(1) + members))


def compute_M_I(seq: HNSequence) -> tuple[int, int]:
    """M = c1 + sum of the p_k - 1 and I = sum of c_k * p_k, on standard form.

    Raw input is standardized first; both quantities are rewrite-invariant,
    the standard form is just the deterministic choice.
    """
    std = standard_form(seq)
    m = std.pairs[0].c + sum(p.p for p in std.pairs) - 1
    i = sum(p.c * p.p for p in std.pairs)
    return m, i


class CuspRecord(_Frozen):
    """Every numerical description of one cusp, mutually consistent."""

    _fields = ("hn", "mult", "char", "puiseux", "zariski", "semigroup", "M", "I")
    hn: HNSequence
    mult: MultiplicitySequence
    char: PuiseuxCharacteristic
    puiseux: PairList
    zariski: PairList
    semigroup: Semigroup
    M: int
    I: int

    def _json_fields(self, sep: str) -> dict:
        """`to_json_obj`, with the three long lists as pieces of items joined by `sep`."""
        return {
            "hn": self.hn.to_json_obj(),
            "mult_reduced": _run_texts(self.mult.reduced().runs, "{}", sep),
            "puiseux_char": list(map(str, self.char.beta)),
            "puiseux_pairs": [[str(m), str(n)] for m, n in self.puiseux.pairs],
            "zariski_pairs": [[str(b), str(a)] for b, a in self.zariski.pairs],
            "semigroup_generators": list(map(str, self.semigroup.generators)),
            "gaps": self.semigroup._gap_texts(sep),
            "alexander_coeffs": self.semigroup._alexander_texts(sep),
            "M": str(self.M),
            "I": str(self.I),
        }

    def to_json_obj(self) -> dict:
        """All integers as decimal strings; gaps sorted ascending."""
        return {key: value if isinstance(value, (str, list))
                else [text for piece in value for text in piece.split(",")]
                for key, value in self._json_fields(",").items()}


def cusp_record(seq: HNSequence) -> CuspRecord:
    """Standardize and fan out to every description at once."""
    std = standardize(seq)
    char = hn_to_puiseux_char(std)
    m, i = compute_M_I(std)
    return CuspRecord(
        hn=std,
        mult=hn_to_multiplicity(std, FULL),
        char=char,
        puiseux=char_to_puiseux_pairs(char),
        zariski=zariski_from_hn(std),
        semigroup=semigroup_of(char),
        M=m,
        I=i,
    )
