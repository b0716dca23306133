"""Weighted trees of rational curves: blowup calculus and fiber anatomy.

A divisor with simple normal crossings and no loops is modeled by its dual
graph, a tree whose vertex weights are self-intersection numbers.  Chains
are written [a1,...,ar] with a_i the NEGATIVE of the self-intersection.
The module provides discriminants, the negative definiteness test and
fiber multiplicities (one exact integer leaf-to-root pass over the tree,
which also reads the resolution in run form), the star/adjoint calculus,
blowups and blowdowns, contraction tests, shapes of P1-fibration fibers,
and the dual graph of the minimal log resolution of a cusp, built directly
from its HN pairs.

The resolution is held as runs: the blowups of one Euclidean quotient form
a chain of (-2)-curves ending in the newest curve, so building it and
computing its audited invariants cost O(#quotients) integer operations,
however large the quotients.  A resolution's `WeightedTree` holds the
runs too: its size, discriminant and definiteness come from them, and
its weights and edges, one per blowup, are expanded only when a caller
reads them, never for output: DOT text and the CLI are written from the
runs in bounded pieces.

Determinants read one junction form, whatever the divisor: a weight list
and a list of edges (a, b, k), where k counts the (-2)-curves that the
edge stands for.  A `WeightedTree` gives its own edges with k = 0, a
`Chain` its tips and entries other than 2 with each run of 2s between
them as one edge, and a `MarkedResolution` the two ends of each run with
the run's inner chain as one edge, plus its links.  `_subtree_determinants`
is the only code that turns the form into adjacency.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cached_property
from heapq import heappop, heappush
from itertools import groupby
from math import gcd
from operator import index
from typing import Iterable, NamedTuple, Union

from .errors import (
    EntryBelowTwo,
    NotAFiber,
    NotContractible,
    NotCoprime,
)
from .hn import HNPair, HNSequence, RAW, _Frozen, _set, standard_form
from .invariants import FULL, MultiplicitySequence, _spans

NONDEGENERATE = "nondegenerate"
CHAIN = "chain"
SPECIAL_FORK = "special_fork"
OTHER = "other"


class WeightedTree(_Frozen):
    """Connected acyclic weighted graph; ids are dense and creation-ordered.

    Equality and hashing are up to weight-preserving isomorphism (canonical
    rooted codes at the tree centers), not up to vertex numbering.

    `weights` and `edges` are set at construction, except on the tree of a
    resolution (`MarkedResolution.tree`), which holds the resolution's runs
    and links instead and expands each field on its first read.  Its size,
    discriminant and definiteness come from the runs, so reading them
    expands nothing.  The state is the instance dict, expanded fields or
    not: a tree pickled before expansion expands after unpickling.
    """

    _fields = ("weights", "edges")

    def __init__(self, weights: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        weights = tuple(map(index, weights))
        n = len(weights)
        seen = set()
        norm = []
        for a, b in edges:
            a, b = index(a), index(b)
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bad edge ({a},{b}) on {n} vertices")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if n and len(norm) != n - 1:
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
        self._fill(weights, tuple(sorted(norm)))

    @classmethod
    def _from_runs(cls, runs: tuple[Run, ...], links: tuple[tuple[int, int], ...],
                   dets: tuple[int, bool]) -> "WeightedTree":
        """The tree of a resolution's run form, with its (discriminant, definite) pair."""
        tree = object.__new__(cls)
        _set(tree, "_runs", runs)
        _set(tree, "_links", links)
        _set(tree, "_dets", dets)
        return tree

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Set at construction, or expanded from the runs on first read."""
        weights: list[int] = []
        for _, count, weight in _vertex_walk(self._runs):
            weights += [weight] * count
        return tuple(weights)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Set at construction, or expanded from the runs and links on first read."""
        edges: list[tuple[int, int]] = []
        for a, b, n in _edge_walk(self._runs, self._links):
            edges += zip(range(a, a + n), range(b, b + n))
        return tuple(edges)

    def __len__(self) -> int:
        """The number of vertices; OverflowError past an index, as for a resolution."""
        runs = self.__dict__.get("_runs")
        return len(self.weights) if runs is None else runs[-1].newest + 1

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in range(len(self.weights))}
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return {v: tuple(sorted(nb)) for v, nb in out.items()}

    @cached_property
    def _canon(self) -> tuple:
        """The canonical code that equality and the hash compare."""
        return _canonical_code(self.weights, self.adjacency())

    def _junction_form(self) -> tuple[tuple[int, ...], Iterable[tuple[int, int, int]]]:
        """The tree in junction form: its own vertices and edges, k = 0."""
        return self.weights, ((a, b, 0) for a, b in self.edges)

    @cached_property
    def _dets(self) -> tuple[int, bool]:
        """(discriminant, negative definite), from one pass kept on the tree.

        Neither value depends on the root, so the one `_subtree_determinants`
        pass serves `discriminant` and `is_negative_definite` alike.  A
        resolution's tree has the pair in its instance dict already, from
        its run form, and the dict wins over this property.
        """
        return _verdict(_subtree_determinants(*self._junction_form(), 0)[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self) -> int:
        return hash(("WeightedTree", self._canon))


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


class Chain(_Frozen):
    """A linear dual graph [a1,...,ar]; entry a_i is minus the weight.

    Equality ignores orientation, matching the convention that a chain and
    its reversal denote the same divisor.  Entries must be integers: 2.7 is
    refused, not rounded.
    """

    _fields = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()) -> None:
        self._fill(tuple(map(index, entries)))

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
                v, n = index(item[0]), index(item[1])
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
                flat.append(index(item))
            i += 1
        return cls._trusted(tuple(flat))

    def __len__(self) -> int:
        return len(self.entries)

    def reverse(self) -> "Chain":
        return Chain._trusted(self.entries[::-1])

    def to_tree(self) -> WeightedTree:
        return WeightedTree._trusted(
            tuple(-a for a in self.entries),
            tuple((i, i + 1) for i in range(len(self.entries) - 1)),
        )

    def _junction_form(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The chain in junction form, in O(#vertices) Python steps.

        The vertices are the two tips and every entry other than 2, in
        order; each edge joins neighbouring vertices and carries the 2s
        between them, which `groupby` counts run by run.
        """
        entries = self.entries
        at = [0] if entries[:1] == (2,) else []     # positions of the vertices
        i = 0
        for a, group in groupby(entries):
            count = len(list(group))
            if a != 2:
                at += range(i, i + count)
            i += count
        if i > 1 and entries[-1] == 2:
            at.append(i - 1)
        return ([-entries[p] for p in at],
                [(v, v + 1, q - p - 1) for v, (p, q) in enumerate(zip(at, at[1:]))])

    @property
    def _dets(self) -> tuple[int, bool]:
        """(discriminant, negative definite), from one pass over the junction form."""
        return _verdict(_subtree_determinants(*self._junction_form(), 0)[2])

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


def _subtree_determinants(weight, edges, root: int):
    """One leaf-to-root pass of subtree determinants over a junction form.

    The junction form is the one format every divisor reaches this kernel
    in: weights of vertices 0..n-1 and tree edges (a, b, k), where k counts
    the (-2)-curves on the edge, so an edge may stand for a run (k is 0
    throughout a plain tree).  Rooted at `root`, T_v is v's subtree plus the
    k curves on v's edge to its parent, and t_v is its curve next to the
    parent (v itself when k is 0).  Returns the order (root first), the
    parents (-1 at the root), d(T_v), d(T_v - t_v), d being the determinant
    of minus the intersection matrix, and the adjacency: adj[v] lists the
    pairs (u, k) of v's edges, in edge order.

    Expanding along v gives -w_v * prod d(T_u) - sum_u d(T_u - t_u) *
    prod_{u' != u} d(T_u') over the children u, all in integers, so a zero
    determinant needs no special case; the k curves on top then move the
    pair by [[k+1, -k], [k, 1-k]].  Leaf-to-root Sylvester pivots are
    ratios of these values, so the tree is negative definite exactly when
    every d(T_v) is positive.  The branches that end inside a run need no
    check: after the product of v's children, the determinants of v's
    subtree and of each longer piece of the run form an arithmetic
    progression, positive throughout when both of its ends are.
    """
    n = len(weight)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, k in edges:
        adj[a].append((b, k))
        adj[b].append((a, k))
    parent = [-1] * n
    gap = [0] * n       # k on the edge to the parent
    order = [root] if n else []
    for v in order:
        p = parent[v]
        for u, k in adj[v]:
            if u != p:
                parent[u] = v
                gap[u] = k
                order.append(u)
    # Until v is reached, drop[v] is the product of its finished children's
    # d(T_u) and sub[v] the sum of d(T_u - t) times the product of the other
    # finished children; each child adds itself to its parent when done.
    sub = [0] * n       # d(T_v)
    drop = [1] * n      # d(T_v - t)
    for v in reversed(order):
        d = drop[v]
        s = -weight[v] * d - sub[v]
        k = gap[v]
        if k:
            s, d = (k + 1) * s - k * d, k * s - (k - 1) * d
        sub[v], drop[v] = s, d
        p = parent[v]
        if p >= 0:
            sub[p] = sub[p] * s + d * drop[p]
            drop[p] *= s
    return order, parent, sub, drop, adj


def _verdict(sub: list[int]) -> tuple[int, bool]:
    """(discriminant, negative definite) from subtree values rooted at vertex 0."""
    return (sub[0] if sub else 1), all(d > 0 for d in sub)


def discriminant(t: Divisor) -> int:
    """Determinant of the negated intersection matrix; d(empty) = 1.

    Chains and trees alike take the linear-time leaf-to-root expansion of
    `_subtree_determinants`; a chain's runs of 2s are read as single edges,
    so it costs O(#entries other than 2) integer steps.  A tree keeps the
    result for `is_negative_definite`; a chain, read once, does not.
    """
    return t._dets[0]


def is_negative_definite(t: Divisor) -> bool:
    """Sylvester test: every rooted subtree has positive discriminant."""
    return t._dets[1]


def star_concat(a: Chain, b: Chain) -> Chain:
    """[a1,...,a_{r-1}, a_r + b1 - 1, b2,...,b_s]; associative, [1] is neutral."""
    if not a.entries or not b.entries:
        raise ValueError("star concatenation needs nonempty chains")
    return Chain._trusted(
        a.entries[:-1] + (a.entries[-1] + b.entries[0] - 1,) + b.entries[1:])


def adjoint(a: Chain) -> Chain:
    """The chain A* with d(A*) = d(A); [A,1,A*] contracts to a 0-curve."""
    if not a.entries:
        raise ValueError("adjoint of the empty chain is undefined")
    for e in a.entries:
        if e < 2:
            raise EntryBelowTwo(f"entry {e} < 2 has no adjoint")
    # the star product of the chains [2]*(e-1), read from the far end
    out = [2] * (a.entries[-1] - 1)
    for e in reversed(a.entries[:-1]):
        out[-1] += 1
        out += [2] * (e - 2)
    return Chain._trusted(tuple(out))


def blow_up(t: WeightedTree, site) -> WeightedTree:
    """Append a fresh (-1)-vertex at a vertex (outer) or an edge (inner).

    Outer: the site's weight drops by one.  Inner: the edge is replaced by
    the two edges through the new vertex and both endpoints drop by one.
    Either way the discriminant of the tree is unchanged.  The edges stay
    sorted: bisection finds an inner site and places each new edge.
    """
    new = len(t.weights)
    weights = [*t.weights, -1]
    edges = list(t.edges)
    if isinstance(site, int):
        if not 0 <= site < new:
            raise ValueError(f"no vertex {site}")
        weights[site] -= 1
        insort(edges, (site, new))
    else:
        a, b = site
        e = (a, b) if a < b else (b, a)
        i = bisect_left(edges, e)
        if edges[i:i + 1] != [e]:
            raise ValueError(f"no edge {e}")
        del edges[i]
        for u in e:
            weights[u] -= 1
            insort(edges, (u, new))
    return WeightedTree._trusted(tuple(weights), tuple(edges))


def blow_down(t: WeightedTree, v: int) -> WeightedTree:
    """Contract a non-branching (-1)-vertex; later ids shift down by one.

    One pass over the sorted edges finds v's neighbours, in ascending
    order, and shifts the other edges; the shift keeps their order, so only
    the edge that joins the two neighbours needs inserting.
    """
    n = len(t.weights)
    if not 0 <= v < n:
        raise ValueError(f"no vertex {v}")
    if t.weights[v] != -1:
        raise NotContractible(f"vertex {v} has weight {t.weights[v]}, not -1")
    nbrs: list[int] = []
    edges: list[tuple[int, int]] = []
    for e in t.edges:
        a, b = e
        if b < v:
            edges.append(e)
        elif b == v:
            nbrs.append(a)
        elif a == v:
            nbrs.append(b)
        elif a < v:
            edges.append((a, b - 1))
        else:
            edges.append((a - 1, b - 1))
    if len(nbrs) > 2:
        raise NotContractible(f"vertex {v} is branching (degree {len(nbrs)})")
    weights = list(t.weights)
    for u in nbrs:
        weights[u] += 1
    del weights[v]
    if len(nbrs) == 2:
        insort(edges, tuple(u - 1 if u > v else u for u in nbrs))
    return WeightedTree._trusted(tuple(weights), tuple(edges))


def _contract_all(t: WeightedTree):
    """Blow down (-1)-vertices (smallest original id first) until stuck.

    Returns the surviving weights keyed by ORIGINAL ids and the contraction
    order.  The greedy order is harmless: a contractible configuration stays
    contractible whichever eligible vertex goes first.  A blowdown raises
    its neighbours' weights and raises no degree, and a vertex loses a
    neighbour only when its weight rises too.  So a vertex can become
    eligible only as its weight reaches -1, and one that stops being
    eligible does so for good: a heap of the ids whose weight reached -1,
    skipping those not eligible when popped, yields the smallest eligible
    one each time.
    """
    weights = dict(enumerate(t.weights))
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for a, b in t.edges:
        adj[a].add(b)
        adj[b].add(a)
    heap = [x for x, w in weights.items() if w == -1]
    trace: list[int] = []
    while len(weights) > 1 and heap:
        v = heappop(heap)
        if weights[v] != -1 or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        del weights[v]
        for u in nbrs:
            weights[u] += 1
            adj[u].discard(v)
            if weights[u] == -1:
                heappush(heap, u)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        trace.append(v)
    return weights, trace


class ContractionResult(_Frozen):
    """Outcome of iterated blowdowns; order lists original vertex ids."""

    _fields = ("ok", "order")
    ok: bool
    order: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def _contracts_to(t: Divisor, weight: int) -> ContractionResult:
    """Iterated blowdowns leave exactly one vertex, and it has this weight."""
    weights, trace = _contract_all(_as_tree(t))
    return ContractionResult(list(weights.values()) == [weight], tuple(trace))


def contracts_to_smooth_point(t: Divisor) -> ContractionResult:
    """True when iterated blowdowns leave a single removable (-1)-vertex."""
    return _contracts_to(t, -1)


def contracts_to_zero_curve(t: Divisor) -> bool:
    """True when iterated blowdowns leave a single 0-weight vertex."""
    return _contracts_to(t, 0).ok


def fiber_multiplicities(t: Divisor) -> tuple[int, ...]:
    """The primitive positive kernel vector of the intersection matrix.

    A reduced fiber of a P1-fibration supports a unique such vector (the
    component multiplicities); without one there is no fiber structure.
    By Perron-Frobenius a positive kernel vector makes minus the matrix
    positive semidefinite with a simple kernel, so, rooted at vertex 0, the
    tree is a fiber exactly when d(T) = 0 and every other subtree
    determinant is positive (Zariski's lemma: proper parts of a fiber are
    negative definite).  The kernel vector is then the root row of the
    adjugate: x_root = d(T - root) and x_u = x_v * d(T_u - u) / d(T_u) for
    each child u of v, an exact division since d(T_u) divides x_v.
    """
    return _fiber_pass(_as_tree(t))[0]


def _fiber_pass(tree: WeightedTree):
    """`fiber_multiplicities` of the tree, and the kernel's adjacency.

    adj[v] lists the pairs (u, 0) of v's neighbours u, in ascending order,
    since the tree's edges are sorted.
    """
    if not tree.weights:
        raise NotAFiber("empty divisor")
    order, parent, sub, drop, adj = _subtree_determinants(*tree._junction_form(), 0)
    if sub[0] != 0:
        raise NotAFiber(f"kernel dimension 0: discriminant {sub[0]} != 0")
    for v in order[1:]:
        if sub[v] <= 0:
            raise NotAFiber(f"kernel vector is not positive: the subtree at "
                            f"vertex {v} has discriminant {sub[v]}")
    x = [0] * len(order)
    x[0] = drop[0]
    for v in order[1:]:
        x[v] = x[parent[v]] // sub[v] * drop[v]
    g = gcd(*x)
    return tuple(xi // g for xi in x), adj


class FiberReport(_Frozen):
    _fields = ("shape", "multiplicities", "minus_one_vertices")
    shape: str
    multiplicities: tuple[int, ...]
    minus_one_vertices: tuple[int, ...]


def _walk(adj: list[list[tuple[int, int]]], v: int, prev: int) -> list[int]:
    """The path from v away from prev, up to the first vertex not of degree 2.

    adj is the kernel's adjacency of a plain tree: pairs (u, 0).
    """
    path = [v]
    while len(adj[v]) == 2:
        (a, _), (b, _) = adj[v]
        prev, v = v, b if a == prev else a
        path.append(v)
    return path


def classify_fiber(t: Divisor) -> FiberReport:
    """Shape and multiplicities of a reduced fiber.

    Shapes: a single 0-curve (nondegenerate), a chain, a special fork (one
    branching vertex, two [2]-twigs of multiplicity 1, the far tip of the
    remaining twig of multiplicity 2), or other.  Every (-1)-vertex must be
    non-branching.  A chain fiber with a unique (-1)-vertex reads [U,1,U*]
    with no check here: the positive kernel vector of `_fiber_pass` forces
    it (tests/test_proofs.py holds the proof).
    """
    tree = _as_tree(t)
    mu, adj = _fiber_pass(tree)
    n = len(tree.weights)
    minus_ones = tuple(v for v, w in enumerate(tree.weights) if w == -1)
    for v in minus_ones:
        if len(adj[v]) >= 3:
            raise NotAFiber(f"(-1)-curve {v} is branching")
    degrees = [len(nb) for nb in adj]

    if n == 1:
        return FiberReport(NONDEGENERATE, mu, minus_ones)

    if max(degrees) <= 2:
        return FiberReport(CHAIN, mu, minus_ones)

    if max(degrees) == 3 and degrees.count(3) == 1:
        center = degrees.index(3)
        twigs = [_walk(adj, nb, center) for nb, _ in adj[center]]
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


class MarkedResolution(_Frozen):
    """Dual graph of the minimal log resolution of one cusp, held as runs.

    The vertices are the runs' vertices, and the edges are the chain edges
    inside each run plus `links`, which join ends of runs.  c_vertex is
    the unique (-1)-curve, which the proper transform of the branch meets.
    mult is the full multiplicity sequence read off during the
    construction.  `tree` is the same divisor as a `WeightedTree`, which
    expands the runs only when its weights or edges are read; output
    (`dot_export` and the CLI) is written from `_vertex_walk` and
    `_edge_walk` of the runs in bounded pieces and never expands them.
    """

    _fields = ("runs", "links", "c_vertex", "mult", "hn")
    runs: tuple[Run, ...]
    links: tuple[tuple[int, int], ...]
    c_vertex: int
    mult: MultiplicitySequence
    hn: HNSequence

    def __len__(self) -> int:
        """The number of vertices, one per blowup; OverflowError past an index."""
        return self.c_vertex + 1

    @cached_property
    def tree(self) -> WeightedTree:
        """The dual graph with one vertex per blowup; a tree by construction.

        The tree holds the runs and links, not the resolution, and expands
        its weights and edges only when they are read.  Its `len` reads the
        runs, and its discriminant and definiteness are read off the run
        form here, so all three cost O(#runs) whatever the number of vertices.
        """
        dets = _verdict(_subtree_determinants(*self._junction_form(), 0)[2])
        return WeightedTree._from_runs(self.runs, self.links, dets)

    def _junction_form(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The tree with every run interior contracted, numbered in id order.

        Its vertices are the oldest and newest vertex of each run, so the
        (-1)-curve c_vertex, the newest of all, comes last.  The edges are
        each run's inner chain, carrying its (-2)-curves, then the links.
        """
        weight: list[int] = []
        edges: list[tuple[int, int, int]] = []
        index: dict[int, int] = {}
        for first, length, end in self.runs:
            if length > 1:
                index[first] = len(weight)
                edges.append((len(weight), len(weight) + 1, length - 2))
                weight.append(-2)
            index[first + length - 1] = len(weight)
            weight.append(end)
        edges += [(index[u], index[v], 0) for u, v in self.links]
        return weight, edges

    def invariants(self) -> ResolutionInvariants:
        """The audited values, in O(#runs) integer operations.

        Vertices inside runs have degree 2 and weight -2, so only run ends
        are counted; the determinants come from `_subtree_determinants`
        over the junction form, rooted at the (-1)-curve.
        """
        weight, edges = self._junction_form()
        root = len(weight) - 1
        _, _, sub, _, adj = _subtree_determinants(weight, edges, root)
        return ResolutionInvariants(
            minus_ones=sum(1 for run in self.runs if run.end == -1),
            curve_degree=len(adj[root]),
            branching=sum(1 for nb in adj if len(nb) >= 3),
            discriminant=sub[root],
            definite=all(d > 0 for d in sub),
        )

    def chain(self) -> Chain:
        """The divisor as a chain, (-1)-curve followed by the heavier side."""
        return Chain.from_runs(self._chain_runs())

    def _chain_runs(self) -> list[tuple[int, int]]:
        """The entries of `chain()` as (value, count) runs, in O(#runs)."""
        heavier, lighter = self._chain_sides()
        return [*reversed(lighter), (1, 1), *heavier]

    def _chain_sides(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The two sides of the (-1)-curve of a chain as (value, count) runs.

        Each side is read outward.  The side of larger discriminant comes
        first; on a tie, the side toward the tip with the smaller id.
        """
        weight, edges = self._junction_form()
        root = len(weight) - 1
        _, parent, sub, _, adj = _subtree_determinants(weight, edges, root)
        if any(len(nb) > 2 for nb in adj):
            raise ValueError("divisor is not a chain")
        sides = []
        for v, k in adj[root]:
            det, runs = sub[v], []
            while True:
                runs += [(2, k), (-weight[v], 1)]
                ahead = [step for step in adj[v] if step[0] != parent[v]]
                if not ahead:
                    break
                (v, k), = ahead
            sides.append((v, tuple(runs), det))
        while len(sides) < 2:
            sides.append((root, (), 1))
        (_, left, d_left), (_, right, d_right) = sorted(sides)
        return (left, right) if d_left >= d_right else (right, left)


def _vertex_walk(runs: Iterable[Run]):
    """The vertices of a run form in id order as pieces (first, count, weight).

    A piece stands for the `count` vertices from `first` on, all of weight
    `weight`: a run's (-2)-curves, if any, then its newest vertex.
    """
    for first, length, end in runs:
        if length > 1:
            yield first, length - 1, -2
        yield first + length - 1, 1, end


def _edge_walk(runs: tuple[Run, ...], links: tuple[tuple[int, int], ...]):
    """The edges of a run form in sorted (a, b) order, a < b, as pieces (a, b, n).

    As in `_vertex_walk`, a piece stands for several: the n edges
    (a + i, b + i).  The chain inside a run is one piece, a link another.
    Every link starts at the newest vertex of a run, so after the chain of
    each run come the links of its newest vertex; that is sorted order.
    """
    links = sorted(links)
    i = 0
    for first, length, _ in runs:
        if length > 1:
            yield first, first + 1, length - 1
        newest = first + length - 1
        while i < len(links) and links[i][0] == newest:
            yield links[i][0], links[i][1], 1
            i += 1


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
            # as in hn_to_multiplicity: a pair with p >= c starts on the
            # previous pair's last value; merged, the runs are a valid full
            # multiplicity sequence
            if mult and mult[-1][0] == small:
                mult[-1] = (small, mult[-1][1] + q)
            else:
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
        mult=MultiplicitySequence._trusted(tuple(mult), FULL),
        hn=hn,
    )


def resolution_graph(seq: HNSequence) -> MarkedResolution:
    """Build the marked resolution; non-standard input is standardized.

    The cost is O(#Euclidean quotients) integer operations, whatever the
    size of the quotients; `MarkedResolution.tree` expands the runs.
    """
    return _resolve(standard_form(seq))


class ChainIdentityReport(_Frozen):
    """Discriminant identities of the single-pair resolution chain.

    a_side and b_side read outward from the (-1)-curve, heavier side in
    a_side.  Truncations drop the far tip.
    """

    _fields = ("c", "p", "q_chain", "a_side", "b_side", "d_a", "d_b", "d_a_trunc", "d_b_trunc")
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
    a_side, b_side = (Chain.from_runs(side).entries for side in
                      _resolve(HNSequence((HNPair(c, p),), RAW))._chain_sides())
    return ChainIdentityReport(
        c=c,
        p=p,
        q_chain=Chain._trusted(b_side[::-1] + (1,) + a_side),
        a_side=a_side,
        b_side=b_side,
        d_a=discriminant(Chain._trusted(a_side)),
        d_b=discriminant(Chain._trusted(b_side)),
        d_a_trunc=discriminant(Chain._trusted(a_side[:-1])),
        d_b_trunc=discriminant(Chain._trusted(b_side[:-1])),
    )


def _edge_texts(walk, mid: str, between: str):
    """The walk's edges as id texts, `mid` inside an edge and `between` edges.

    One text per piece of the walk of at most _PIECE edges.
    """
    for a, b, n in walk:
        for first, size in _spans(0, n):
            yield between.join(map(mid.join, zip(
                map(str, range(a + first, a + first + size)),
                map(str, range(b + first, b + first + size)))))


def _dot_pieces(obj):
    """`dot_export` text in pieces of at most _PIECE lines, from the run form.

    A resolution, or its tree, is written from `_vertex_walk` and
    `_edge_walk` of its runs and expands nothing; any other tree is
    written as runs of one vertex.  A resolution too large to list raises
    OverflowError before the first piece.
    """
    if isinstance(obj, MarkedResolution):
        runs, links, mark = obj.runs, obj.links, obj.c_vertex
    else:
        obj = _as_tree(obj)
        runs, links, mark = obj.__dict__.get("_runs"), obj.__dict__.get("_links"), None
    len(obj)    # raises past an index, before any text
    if runs is None:
        runs = (Run(v, 1, w) for v, w in enumerate(obj.weights))
        walk = ((a, b, 1) for a, b in obj.edges)
    else:
        walk = _edge_walk(runs, links)
    yield "graph Q {\n  node [shape=circle];\n"
    for first, count, weight in _vertex_walk(runs):
        shape = ", shape=doublecircle" if first == mark else ""
        label = f' [label="{weight}"{shape}];\n'
        for start, size in _spans(first, count):
            yield "  v" + (label + "  v").join(map(str, range(start, start + size))) + label
    if mark is not None:
        yield "  E [shape=box];\n"
    for text in _edge_texts(walk, " -- v", ";\n  v"):
        yield "  v" + text + ";\n"
    if mark is not None:
        yield f"  v{mark} -- E [style=dashed];\n"
    yield "}\n"


def dot_export(obj) -> str:
    """Graphviz text with creation-ordered vertices for byte-stable output."""
    return "".join(_dot_pieces(obj))
