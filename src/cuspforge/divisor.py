"""Weighted trees of rational curves: blowup calculus and fiber anatomy.

A divisor with simple normal crossings and no loops is modeled by its dual
graph, a tree whose vertex weights are self-intersection numbers.  Chains
are written [a1,...,ar] with a_i the NEGATIVE of the self-intersection.
The module provides discriminants and the negative definiteness test (one
exact integer leaf-to-root pass over the tree), the star/adjoint calculus,
blowups and blowdowns, contraction tests, multiplicities and shapes of
P1-fibration fibers, and the dual graph of the minimal log resolution of a
cusp, built directly from its HN pairs.

The resolution is held as runs: the blowups of one Euclidean quotient form
a chain of (-2)-curves ending in the newest curve, so building it and
computing its audited invariants cost O(#quotients) integer operations,
however large the quotients.  The tree with one vertex per blowup is
expanded only when it is read, for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Union

from .errors import (
    EntryBelowTwo,
    NotAFiber,
    NotContractible,
    NotCoprime,
)
from .hn import HNPair, HNSequence, RAW, STANDARD, require_valid, standardize
from .invariants import FULL, MultiplicitySequence

NONDEGENERATE = "nondegenerate"
CHAIN = "chain"
SPECIAL_FORK = "special_fork"
OTHER = "other"

@dataclass(frozen=True, eq=False)
class WeightedTree:
    """Connected acyclic weighted graph; ids are dense and creation-ordered.

    Equality and hashing are up to weight-preserving isomorphism (canonical
    rooted codes at the tree centers), not up to vertex numbering.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        weights = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        n = len(weights)
        seen = set()
        norm = []
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bad edge ({a},{b}) on {n} vertices")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if n == 0:
            if norm:
                raise ValueError("edges without vertices")
            return
        if len(norm) != n - 1:
            raise ValueError(f"{n} vertices need {n - 1} edges, got {len(norm)}")
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in norm:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("edges form a cycle")
            parent[ra] = rb

    @classmethod
    def _trusted(cls, weights: tuple[int, ...],
                 edges: tuple[tuple[int, int], ...]) -> "WeightedTree":
        """A tree known to be valid: int weights, sorted (a, b) edges with a < b."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "weights", weights)
        object.__setattr__(tree, "edges", edges)
        return tree

    def __len__(self) -> int:
        return len(self.weights)

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in range(len(self.weights))}
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return {v: tuple(sorted(nb)) for v, nb in out.items()}

    def _key(self) -> tuple:
        cached = self.__dict__.get("_canon")
        if cached is None:
            cached = _canonical_code(self.weights, self.adjacency())
            object.__setattr__(self, "_canon", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(("WeightedTree", self._key()))


def _centers(n: int, adj: dict[int, tuple[int, ...]]) -> list[int]:
    if n <= 2:
        return list(range(n))
    deg = [len(adj[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = 0
    while n - removed > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        removed += len(layer)
        layer = nxt
    return layer


def _rooted_code(weights, adj, root: int) -> tuple:
    """AHU code of the tree rooted at `root`, as one tuple per height level.

    Level h holds the sorted distinct keys (weight, sorted child labels) of
    the vertices of height h; a vertex's label is the position of its key in
    the levels read in order.  The code depends on the rooted shape alone,
    and its nesting depth is fixed, so comparing and hashing it never
    recurses along a long chain.
    """
    parent = {root: -1}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    height: dict[int, int] = {}
    for v in reversed(order):
        height[v] = 1 + max((height[u] for u in adj[v] if parent[u] == v), default=-1)
    levels: list[list[int]] = [[] for _ in range(height[root] + 1)]
    for v in order:
        levels[height[v]].append(v)
    label: dict[int, int] = {}
    index: dict[tuple, int] = {}
    code = []
    for level in levels:
        keys = {
            v: (weights[v], tuple(sorted(label[u] for u in adj[v] if parent[u] == v)))
            for v in level
        }
        distinct = tuple(sorted(set(keys.values())))
        for key in distinct:
            index[key] = len(index)
        for v, key in keys.items():
            label[v] = index[key]
        code.append(distinct)
    return tuple(code)


def _canonical_code(weights, adj) -> tuple:
    n = len(weights)
    if n == 0:
        return ()
    return min(_rooted_code(weights, adj, c) for c in _centers(n, adj))


@dataclass(frozen=True, eq=False)
class Chain:
    """A linear dual graph [a1,...,ar]; entry a_i is minus the weight.

    Equality ignores orientation, matching the convention that a chain and
    its reversal denote the same divisor.
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(a) for a in self.entries))

    @classmethod
    def from_runs(cls, items) -> "Chain":
        """Expand run notation; (v, n) means n copies of v.

        The boundary convention allows the run (2, -1) when an entry 3
        immediately follows: the two cancel and the preceding entry (if
        any) is incremented, so [a,(2,-1),3] collapses to [a+1] and a
        leading [(2,-1),3] collapses to nothing.
        """
        seq = list(items)
        flat: list[int] = []
        i = 0
        while i < len(seq):
            item = seq[i]
            if isinstance(item, tuple):
                v, n = int(item[0]), int(item[1])
                if n == -1:
                    if v != 2:
                        raise ValueError(f"negative run count on value {v}")
                    if i + 1 >= len(seq) or seq[i + 1] != 3:
                        raise ValueError("(2,-1) run must be followed by the entry 3")
                    if flat:
                        flat[-1] += 1
                    i += 2
                    continue
                if n < 0:
                    raise ValueError(f"negative run count {n}")
                flat.extend([v] * n)
            else:
                flat.append(int(item))
            i += 1
        return cls(tuple(flat))

    def __len__(self) -> int:
        return len(self.entries)

    def reverse(self) -> "Chain":
        return Chain(tuple(reversed(self.entries)))

    def to_tree(self) -> WeightedTree:
        n = len(self.entries)
        return WeightedTree(
            tuple(-a for a in self.entries),
            tuple((i, i + 1) for i in range(n - 1)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.entries == other.entries or self.entries == other.entries[::-1]

    def __hash__(self) -> int:
        return hash(min(self.entries, self.entries[::-1]))

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.entries) + "]"


Divisor = Union[WeightedTree, Chain]


def _as_tree(t: Divisor) -> WeightedTree:
    return t.to_tree() if isinstance(t, Chain) else t


def _continuant(entries: tuple[int, ...]) -> int:
    prev, cur = 0, 1
    for a in entries:
        prev, cur = cur, a * cur - prev
    return cur


def _subtree_determinants(t: WeightedTree) -> list[int]:
    """Determinant of the negated intersection matrix of each rooted subtree.

    The tree is rooted at vertex 0; values come leaves first and the root's,
    the discriminant of the whole tree, last.  Expanding d(T_v) along v gives
    -w_v * prod d(T_u) - sum_u d(T_u - u) * prod_{u' != u} d(T_u') over the
    children u of v, all in integers, so a zero determinant needs no special
    case.  Leaf-to-root Sylvester pivots are the ratios d(T_v) / prod d(T_u),
    so the tree is negative definite exactly when every value is positive.
    """
    n = len(t.weights)
    adj = t.adjacency()
    order = [0] if n else []
    parent = [-1] * n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    sub = [0] * n     # d(T_v)
    drop = [1] * n    # d(T_v - v), the product of d(T_u) over the children
    out = []
    for v in reversed(order):
        # running product of the children's d(T_u), and the sum of d(T_u - u)
        # times the product of the other children seen so far
        prod, rest = 1, 0
        for u in adj[v]:
            if u != parent[v]:
                rest = rest * sub[u] + drop[u] * prod
                prod *= sub[u]
        drop[v] = prod
        sub[v] = -t.weights[v] * prod - rest
        out.append(sub[v])
    return out


def discriminant(t: Divisor) -> int:
    """Determinant of the negated intersection matrix; d(empty) = 1.

    Chains use the continuant recursion; trees use the linear-time
    leaf-to-root expansion of `_subtree_determinants`.
    """
    if isinstance(t, Chain):
        return _continuant(t.entries)
    dets = _subtree_determinants(t)
    return dets[-1] if dets else 1


def is_negative_definite(t: Divisor) -> bool:
    """Sylvester test: every rooted subtree has positive discriminant."""
    return all(d > 0 for d in _subtree_determinants(_as_tree(t)))


def star_concat(a: Chain, b: Chain) -> Chain:
    """[a1,...,a_{r-1}, a_r + b1 - 1, b2,...,b_s]; associative, [1] is neutral."""
    if not a.entries or not b.entries:
        raise ValueError("star concatenation needs nonempty chains")
    return Chain(a.entries[:-1] + (a.entries[-1] + b.entries[0] - 1,) + b.entries[1:])


def adjoint(a: Chain) -> Chain:
    """The chain A* with d(A*) = d(A); [A,1,A*] contracts to a 0-curve."""
    if not a.entries:
        raise ValueError("adjoint of the empty chain is undefined")
    for e in a.entries:
        if e < 2:
            raise EntryBelowTwo(f"entry {e} < 2 has no adjoint")
    out = Chain((2,) * (a.entries[-1] - 1))
    for e in reversed(a.entries[:-1]):
        out = star_concat(out, Chain((2,) * (e - 1)))
    return out


def blow_up(t: WeightedTree, site) -> WeightedTree:
    """Append a fresh (-1)-vertex at a vertex (outer) or an edge (inner).

    Outer: the site's weight drops by one.  Inner: the edge is replaced by
    the two edges through the new vertex and both endpoints drop by one.
    Either way the discriminant of the tree is unchanged.
    """
    n = len(t.weights)
    new = n
    if isinstance(site, int):
        if not 0 <= site < n:
            raise ValueError(f"no vertex {site}")
        weights = list(t.weights)
        weights[site] -= 1
        weights.append(-1)
        return WeightedTree(tuple(weights), t.edges + ((site, new),))
    a, b = site
    e = (a, b) if a < b else (b, a)
    if e not in t.edges:
        raise ValueError(f"no edge {e}")
    weights = list(t.weights)
    weights[e[0]] -= 1
    weights[e[1]] -= 1
    weights.append(-1)
    edges = tuple(x for x in t.edges if x != e) + ((e[0], new), (e[1], new))
    return WeightedTree(tuple(weights), edges)


def blow_down(t: WeightedTree, v: int) -> WeightedTree:
    """Contract a non-branching (-1)-vertex; later ids shift down by one."""
    n = len(t.weights)
    if not 0 <= v < n:
        raise ValueError(f"no vertex {v}")
    if t.weights[v] != -1:
        raise NotContractible(f"vertex {v} has weight {t.weights[v]}, not -1")
    nbrs = sorted(u for e in t.edges if v in e for u in e if u != v)
    if len(nbrs) > 2:
        raise NotContractible(f"vertex {v} is branching (degree {len(nbrs)})")
    weights = [w + (1 if i in nbrs else 0) for i, w in enumerate(t.weights) if i != v]
    edges = [e for e in t.edges if v not in e]
    if len(nbrs) == 2:
        edges.append((nbrs[0], nbrs[1]))
    remap = lambda x: x if x < v else x - 1
    return WeightedTree(tuple(weights), tuple((remap(a), remap(b)) for a, b in edges))


def _contract_all(t: WeightedTree):
    """Blow down (-1)-vertices (smallest original id first) until stuck.

    Returns the surviving weights and adjacency keyed by ORIGINAL ids plus
    the contraction order.  The greedy order is harmless: a contractible
    configuration stays contractible whichever eligible vertex goes first.
    """
    weights = dict(enumerate(t.weights))
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for a, b in t.edges:
        adj[a].add(b)
        adj[b].add(a)
    trace: list[int] = []
    while len(weights) > 1:
        v = min(
            (x for x in weights if weights[x] == -1 and len(adj[x]) <= 2),
            default=None,
        )
        if v is None:
            break
        nbrs = sorted(adj[v])
        for u in nbrs:
            weights[u] += 1
            adj[u].discard(v)
        if len(nbrs) == 2:
            adj[nbrs[0]].add(nbrs[1])
            adj[nbrs[1]].add(nbrs[0])
        del weights[v], adj[v]
        trace.append(v)
    return weights, adj, trace


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of iterated blowdowns; order lists original vertex ids."""

    ok: bool
    order: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def contracts_to_smooth_point(t: Divisor) -> ContractionResult:
    """True when iterated blowdowns leave a single removable (-1)-vertex."""
    tree = _as_tree(t)
    if not tree.weights:
        return ContractionResult(False, ())
    weights, _, trace = _contract_all(tree)
    ok = len(weights) == 1 and next(iter(weights.values())) == -1
    return ContractionResult(ok, tuple(trace))


def contracts_to_zero_curve(t: Divisor) -> bool:
    """True when iterated blowdowns leave a single 0-weight vertex."""
    tree = _as_tree(t)
    if not tree.weights:
        return False
    weights, _, _ = _contract_all(tree)
    return len(weights) == 1 and next(iter(weights.values())) == 0


def fiber_multiplicities(t: Divisor) -> tuple[int, ...]:
    """The primitive positive kernel vector of the intersection matrix.

    A reduced fiber of a P1-fibration supports a unique such vector (the
    component multiplicities).  Kernel dimension other than one, or a
    kernel vector with entries of mixed sign, means no fiber structure.
    """
    tree = _as_tree(t)
    n = len(tree.weights)
    if n == 0:
        raise NotAFiber("empty divisor")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, w in enumerate(tree.weights):
        m[i][i] = Fraction(w)
    for a, b in tree.edges:
        m[a][b] = m[b][a] = Fraction(1)

    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, n) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivot_cols.append(col)
        row += 1
    if n - row != 1:
        raise NotAFiber(f"kernel dimension {n - row} != 1")
    free = next(c for c in range(n) if c not in pivot_cols)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, col in enumerate(pivot_cols):
        x[col] = -m[r][free]
    scale = lcm(*(xi.denominator for xi in x))
    v = [int(xi * scale) for xi in x]
    g = gcd(*v)
    v = [vi // g for vi in v]
    if any(vi <= 0 for vi in v):
        raise NotAFiber(f"kernel vector {tuple(v)} is not positive")
    return tuple(v)


@dataclass(frozen=True)
class FiberReport:
    shape: str
    multiplicities: tuple[int, ...]
    minus_one_vertices: tuple[int, ...]


def _path_order(tree: WeightedTree, adj: dict[int, tuple[int, ...]]) -> list[int]:
    n = len(tree.weights)
    if n == 1:
        return [0]
    start = min(v for v in range(n) if len(adj[v]) == 1)
    order = [start]
    prev, cur = -1, start
    while len(order) < n:
        nxt = next(u for u in adj[cur] if u != prev)
        prev, cur = cur, nxt
        order.append(cur)
    return order


def classify_fiber(t: Divisor) -> FiberReport:
    """Shape and multiplicities of a reduced fiber.

    Shapes: a single 0-curve (nondegenerate), a chain, a special fork (one
    branching vertex, two [2]-twigs of multiplicity 1, the far tip of the
    remaining twig of multiplicity 2), or other.  Every (-1)-vertex must be
    non-branching; a chain with a unique (-1)-vertex must read [U,1,U*].
    """
    tree = _as_tree(t)
    mu = fiber_multiplicities(tree)
    adj = tree.adjacency()
    n = len(tree.weights)
    minus_ones = tuple(v for v, w in enumerate(tree.weights) if w == -1)
    for v in minus_ones:
        if len(adj[v]) >= 3:
            raise NotAFiber(f"(-1)-curve {v} is branching")
    degrees = [len(adj[v]) for v in range(n)]

    if n == 1:
        return FiberReport(NONDEGENERATE, mu, minus_ones)

    if max(degrees) <= 2:
        if len(minus_ones) == 1:
            order = _path_order(tree, adj)
            pos = order.index(minus_ones[0])
            before = tuple(-tree.weights[v] for v in order[:pos])
            after = tuple(-tree.weights[v] for v in order[pos + 1:])
            if not before or not after:
                raise NotAFiber("unique (-1)-curve sits at a tip of the chain")
            try:
                star = adjoint(Chain(before))
            except EntryBelowTwo as exc:
                raise NotAFiber(f"chain fiber is not [U,1,U*]: {exc}") from exc
            # after == U*, and the adjoint preserves the discriminant, so
            # d(U) = d(U*) holds without a separate check
            if star.entries != after:
                raise NotAFiber(
                    f"chain fiber is not [U,1,U*]: adjoint of {before} is "
                    f"{star.entries}, found {after}")
        return FiberReport(CHAIN, mu, minus_ones)

    if max(degrees) == 3 and degrees.count(3) == 1:
        center = degrees.index(3)
        twigs = []
        for nb in adj[center]:
            twig = [nb]
            prev, cur = center, nb
            while len(adj[cur]) == 2:
                nxt = next(u for u in adj[cur] if u != prev)
                prev, cur = cur, nxt
                twig.append(cur)
            twigs.append(twig)
        simple = [
            tw for tw in twigs
            if len(tw) == 1 and tree.weights[tw[0]] == -2 and mu[tw[0]] == 1
        ]
        if len(simple) == 2:
            rest = next(tw for tw in twigs if tw not in simple)
            if mu[rest[-1]] == 2:
                return FiberReport(SPECIAL_FORK, mu, minus_ones)
        return FiberReport(OTHER, mu, minus_ones)

    return FiberReport(OTHER, mu, minus_ones)


class Run(NamedTuple):
    """The blowups of one Euclidean quotient, as a chain of new vertices.

    The run holds the consecutive ids first, ..., first + length - 1, in
    blowup order.  Every vertex but the newest has weight -2; the newest
    has weight `end`.
    """

    first: int
    length: int
    end: int

    @property
    def newest(self) -> int:
        return self.first + self.length - 1


class ResolutionInvariants(NamedTuple):
    """The values the per-cusp resolution audit compares."""

    minus_ones: int      # number of (-1)-curves
    curve_degree: int    # neighbours of the marked (-1)-curve
    branching: int       # vertices of degree >= 3
    discriminant: int
    definite: bool


@dataclass(frozen=True)
class MarkedResolution:
    """Dual graph of the minimal log resolution of one cusp, held as runs.

    The vertices are the runs' vertices, and the edges are the chain edges
    inside each run plus `links`, which join ends of runs.  c_vertex is
    the unique (-1)-curve, which the proper transform of the branch meets.
    mult is the full multiplicity sequence read off during the
    construction.  `tree` expands the runs on first use.
    """

    runs: tuple[Run, ...]
    links: tuple[tuple[int, int], ...]
    c_vertex: int
    mult: MultiplicitySequence
    hn: HNSequence

    @cached_property
    def tree(self) -> WeightedTree:
        """The dual graph with one vertex per blowup; a tree by construction."""
        weights: list[int] = []
        edges = list(self.links)
        for first, length, end in self.runs:
            weights += [-2] * (length - 1)
            weights.append(end)
            edges += zip(range(first, first + length - 1), range(first + 1, first + length))
        edges.sort()
        return WeightedTree._trusted(tuple(weights), tuple(edges))

    def _junctions(self) -> tuple[dict[int, int], dict[int, list[tuple[int, int]]]]:
        """The tree with every run interior contracted.

        Its vertices are the oldest and newest vertex of each run; each
        maps to its weight and to its neighbours, given as (vertex, number
        of (-2)-curves between them).
        """
        weight: dict[int, int] = {}
        adj: dict[int, list[tuple[int, int]]] = {}
        for run in self.runs:
            newest = run.newest
            weight[newest] = run.end
            adj[newest] = []
            if run.length > 1:
                weight[run.first] = -2
                adj[run.first] = [(newest, run.length - 2)]
                adj[newest].append((run.first, run.length - 2))
        for u, v in self.links:
            adj[u].append((v, 0))
            adj[v].append((u, 0))
        return weight, adj

    def invariants(self) -> ResolutionInvariants:
        """The audited values, in O(#runs) integer operations.

        Vertices inside runs have degree 2 and weight -2, so only run ends
        are counted.  The subtree determinants of `_subtree_determinants`
        are taken with the (-1)-curve as root; through k (-2)-curves the
        pair (d(T_v), d(T_v - v)) moves by [[k+1, -k], [k, 1-k]], so the k
        determinants inside a run are linear in their position and are all
        positive when the two at its ends are.
        """
        weight, adj = self._junctions()
        root = self.c_vertex
        parent = {root: root}
        order = [root]
        for v in order:
            for u, _ in adj[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        sub: dict[int, int] = {}
        drop: dict[int, int] = {}
        definite = True
        for v in reversed(order):
            prod, rest = 1, 0
            for u, k in adj[v]:
                if parent[u] != v:
                    continue
                s, d = sub[u], drop[u]
                if k:
                    s, d = (k + 1) * s - k * d, k * s - (k - 1) * d
                    definite = definite and s > 0
                rest = rest * s + d * prod
                prod *= s
            sub[v] = -weight[v] * prod - rest
            drop[v] = prod
            definite = definite and sub[v] > 0
        return ResolutionInvariants(
            minus_ones=sum(1 for run in self.runs if run.end == -1),
            curve_degree=len(adj[root]),
            branching=sum(1 for nb in adj.values() if len(nb) >= 3),
            discriminant=sub[root],
            definite=definite,
        )

    def chain(self) -> Chain:
        """The divisor as a chain, (-1)-curve followed by the heavier side."""
        heavier, lighter = self._chain_sides()
        return Chain(lighter[::-1] + (1,) + heavier)

    def _chain_sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Entries on the two sides of the (-1)-curve of a chain, read outward.

        The side of larger discriminant comes first; on a tie, the side
        toward the tip with the smaller id.
        """
        weight, adj = self._junctions()
        if any(len(nb) > 2 for nb in adj.values()):
            raise ValueError("divisor is not a chain")
        sides = []
        for step in adj[self.c_vertex]:
            prev, (v, k) = self.c_vertex, step
            entries: list[int] = []
            det, det_before = 1, 0  # continuants of the entries and of all but the last
            while True:
                entries += [2] * k
                det, det_before = (k + 1) * det - k * det_before, k * det - (k - 1) * det_before
                entries.append(-weight[v])
                det, det_before = -weight[v] * det - det_before, det
                ahead = [s for s in adj[v] if s[0] != prev]
                if not ahead:
                    break
                prev, (v, k) = v, ahead[0]
            sides.append((v, tuple(entries), det))
        while len(sides) < 2:
            sides.append((self.c_vertex, (), 1))
        (_, left, d_left), (_, right, d_right) = sorted(sides)
        return (left, right) if d_left >= d_right else (right, left)


def _resolve(hn: HNSequence) -> MarkedResolution:
    """Run the blowup process of a chain-consistent HN pair list, run by run.

    Two reference curves carry the running intersection pair (a, b); each
    blowup records min(a, b) as a multiplicity and subtracts it from the
    larger entry.  While a > b (b > a) the curve paired with b (a) is
    replaced by each new exceptional curve, so the q blowups of one
    Euclidean quotient form a run: a chain from the moving reference
    through the new vertices to the fixed reference.  Each new vertex but
    the newest is met once more and ends at weight -2; the fixed reference
    drops by q and the moving one by 1.  The next quotient swaps the roles,
    its run replacing the edge between the newest vertex and the fixed
    reference, which only the last run of a pair keeps.  The first pair
    starts with both references virtual (the germ and its transversal);
    every later pair starts from the previous pair's newest vertex plus a
    fresh virtual germ.  Virtual references get no vertex.
    """
    runs: list[Run] = []
    ends: list[int] = []    # running weight of each run's newest vertex
    links: list[tuple[int, int]] = []
    mult: list[tuple[int, int]] = []
    size = 0
    last = -1               # the run whose newest vertex ends the previous pair
    for pair in hn.pairs:
        a, b = pair.c, pair.p
        # run indices of the references; -1 is virtual
        fixed, moving = (last, -1) if a >= b else (-1, last)
        big, small = max(a, b), min(a, b)
        while True:
            q, r = divmod(big, small)
            mult.append((small, q))
            if moving >= 0:
                ends[moving] -= 1
                links.append((runs[moving].newest, size))
            if fixed >= 0:
                ends[fixed] -= q
            runs.append(Run(size, q, -1))
            ends.append(-1)
            size += q
            if r == 0:
                if fixed >= 0:
                    links.append((runs[fixed].newest, size - 1))
                last = len(runs) - 1
                break
            fixed, moving = len(runs) - 1, fixed
            big, small = small, r
    return MarkedResolution(
        runs=tuple(Run(run.first, run.length, end) for run, end in zip(runs, ends)),
        links=tuple(links),
        c_vertex=size - 1,
        mult=MultiplicitySequence.from_runs(mult, FULL),
        hn=hn,
    )


def resolution_graph(seq: HNSequence) -> MarkedResolution:
    """Build the marked resolution; non-standard input is standardized.

    The cost is O(#Euclidean quotients) integer operations, whatever the
    size of the quotients; `MarkedResolution.tree` expands the runs.
    """
    if seq.flavor == STANDARD:
        require_valid(seq)
        std = seq
    else:
        std = standardize(seq)
    return _resolve(std)


@dataclass(frozen=True)
class ChainIdentityReport:
    """Discriminant identities of the single-pair resolution chain.

    a_side and b_side read outward from the (-1)-curve, heavier side in
    a_side.  Truncations drop the far tip.
    """

    c: int
    p: int
    q_chain: Chain
    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    d_a: int
    d_b: int
    d_a_trunc: int
    d_b_trunc: int

    @property
    def ok(self) -> bool:
        r = self.c % self.p
        return (
            self.d_a == self.c
            and self.d_b == self.p
            and self.d_a_trunc == self.c - self.p
            and self.d_b_trunc == self.p - r
        )


def hn_chain_identities(c: int, p: int) -> ChainIdentityReport:
    """Check d(A) = c, d(B) = p and the far-tip truncation identities."""
    if c <= p or p < 1:
        raise ValueError(f"need c > p >= 1, got ({c},{p})")
    if gcd(c, p) != 1:
        raise NotCoprime(f"gcd({c},{p}) = {gcd(c, p)} != 1")
    a_side, b_side = _resolve(HNSequence((HNPair(c, p),), RAW))._chain_sides()
    return ChainIdentityReport(
        c=c,
        p=p,
        q_chain=Chain(b_side[::-1] + (1,) + a_side),
        a_side=a_side,
        b_side=b_side,
        d_a=_continuant(a_side),
        d_b=_continuant(b_side),
        d_a_trunc=_continuant(a_side[:-1]),
        d_b_trunc=_continuant(b_side[:-1]),
    )


def dot_export(obj) -> str:
    """Graphviz text with creation-ordered vertices for byte-stable output."""
    marked = obj if isinstance(obj, MarkedResolution) else None
    tree = marked.tree if marked else _as_tree(obj)
    lines = ["graph Q {", "  node [shape=circle];"]
    for v, w in enumerate(tree.weights):
        mark = ", shape=doublecircle" if marked and v == marked.c_vertex else ""
        lines.append(f'  v{v} [label="{w}"{mark}];')
    if marked:
        lines.append("  E [shape=box];")
    for a, b in tree.edges:
        lines.append(f"  v{a} -- v{b};")
    if marked:
        lines.append(f"  v{marked.c_vertex} -- E [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
