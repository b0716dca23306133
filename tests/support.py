"""Shared corpus builders: random cusps, random trees, slow reference oracles."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import strategies as st

from cuspforge.divisor import (
    CHAIN,
    Chain,
    FiberReport,
    WeightedTree,
    blow_up,
    discriminant,
    fiber_multiplicities,
    is_negative_definite,
    star_concat,
)
from cuspforge.errors import EntryBelowTwo, NotAFiber, NotContractible, NotReducible
from cuspforge.hn import (
    HNPair,
    HNSequence,
    RAW,
    STANDARD,
    format_hn,
    require_valid,
    validate,
)
from cuspforge.invariants import (
    FULL,
    CuspRecord,
    ZARISKI,
    MultiplicitySequence,
    PairList,
    PuiseuxCharacteristic,
    _I,
    _J,
    alexander_polynomial,
)


def replaced(obj, **changes):
    """A copy of a value object with some fields changed, built by its public constructor."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def random_standard_hn(rng: random.Random, max_h: int = 4, cap: int = 10_000) -> HNSequence:
    """A uniform-ish valid standard sequence built from a ratio tower.

    c_j is a product of ratios r_j..r_h, so the gcd chain holds by
    construction; multipliers coprime to the ratios keep every divisibility
    axiom satisfiable without rejection sampling.
    """
    h = rng.randint(1, max_h)
    if h == 1:
        while True:
            c = rng.randint(3, cap)
            p = rng.randint(2, c - 1)
            if gcd(c, p) == 1:
                return HNSequence((HNPair(c, p),), STANDARD)
    while True:
        ratios = [rng.randint(3, 9)] + [rng.randint(2, 9) for _ in range(h - 1)]
        cvals = [1]
        for r in reversed(ratios):
            cvals.append(cvals[-1] * r)
        cvals.reverse()  # cvals[j] = c_{j+1} in 0-based terms, cvals[h] = 1
        if cvals[0] > cap:
            continue
        r1 = ratios[0]
        choices = [m for m in range(2, r1) if gcd(m, r1) == 1]
        pairs = [HNPair(cvals[0], cvals[1] * rng.choice(choices))]
        for j in range(1, h):
            rj = ratios[j]
            bound = min(4 * rj, max(1, cap // cvals[j + 1]))
            ms = [m for m in range(1, bound + 1) if gcd(m, rj) == 1]
            pairs.append(HNPair(cvals[j], cvals[j + 1] * rng.choice(ms)))
        return HNSequence(tuple(pairs), STANDARD)


def stress_standard_hn(rng: random.Random, cap: int = 10_000) -> HNSequence:
    """Two-pair sequence with head entry near the cap."""
    r1 = rng.randint(80, 140)
    c2 = rng.randint(7, cap // r1)
    m1 = next(m for m in range(r1 - 1, 1, -1) if gcd(m, r1) == 1)
    m2 = next(m for m in range(rng.randint(2, 30), 0, -1) if gcd(m, c2) == 1)
    return HNSequence((HNPair(r1 * c2, m1 * c2), HNPair(c2, m2)), STANDARD)


def random_tree(rng: random.Random, n: int, wlow: int = -6, whigh: int = -1) -> WeightedTree:
    weights = tuple(rng.randint(wlow, whigh) for _ in range(n))
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return WeightedTree(weights, edges)


def induced_discriminant(tree: WeightedTree, keep) -> int:
    """Product of discriminants of the components induced on `keep`."""
    keep = set(keep)
    adj = tree.adjacency()
    seen: set[int] = set()
    total = 1
    for start in sorted(keep):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in keep and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        index = {u: i for i, u in enumerate(comp)}
        sub = WeightedTree(
            tuple(tree.weights[u] for u in comp),
            tuple((index[u], index[v]) for u, v in tree.edges
                  if u in index and v in index),
        )
        total *= discriminant(sub)
    return total


def negated_matrix(tree: WeightedTree) -> list[list[int]]:
    """Minus the intersection matrix of the tree, as dense integer rows."""
    n = len(tree.weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(tree.weights):
        m[i][i] = -w
    for a, b in tree.edges:
        m[a][b] = m[b][a] = -1
    return m


def continuant_oracle(entries: tuple[int, ...]) -> int:
    """Chain discriminant by the three-term continuant recursion; 1 when empty."""
    prev, cur = 0, 1
    for a in entries:
        prev, cur = cur, a * cur - prev
    return cur


def bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    denom = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // denom
        denom = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_definite_oracle(tree: WeightedTree) -> bool:
    """Negative definiteness from exact Fraction pivots, eliminated leaf to root."""
    n = len(tree.weights)
    if n == 0:
        return True
    adj = tree.adjacency()
    order = [0]
    parent = {0: -1}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    pivot: dict[int, Fraction] = {}
    for v in reversed(order):
        p = Fraction(-tree.weights[v])
        for u in adj[v]:
            if parent[u] == v:
                p -= 1 / pivot[u]
        if p <= 0:
            return False
        pivot[v] = p
    return True


def random_fiber(rng: random.Random, steps: int) -> WeightedTree:
    """A reduced P1-fiber: a 0-curve blown up `steps` times at random sites."""
    tree = Chain((0,)).to_tree()
    for _ in range(steps):
        if tree.edges and rng.random() < 0.5:
            site = rng.choice(list(tree.edges))
        else:
            site = rng.randrange(len(tree.weights))
        tree = blow_up(tree, site)
    return tree


def gauss_jordan_kernel(tree: WeightedTree) -> tuple[int, ...]:
    """Primitive positive kernel vector by Fraction Gauss-Jordan elimination.

    Raises ``NotAFiber`` when the kernel is not one-dimensional or its
    vector has entries of mixed sign.
    """
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


def simulate_resolution(pairs: tuple[HNPair, ...]):
    """Run the blowup process of a chain-consistent HN pair list, one blowup a step.

    Two reference curves carry the running intersection pair (a, b); only
    realized exceptional curves get vertices.  The first pair starts with
    both references virtual (the germ and its transversal); every later
    pair starts from the previous pair's last exceptional curve plus a
    fresh virtual germ.  Each blowup records min(a, b) as a multiplicity.
    Returns the validated tree, the full multiplicity sequence and the id
    of the last exceptional curve.
    """
    weights: list[int] = []
    edges: set[tuple[int, int]] = set()
    runs: list[tuple[int, int]] = []
    last = None
    for idx, pair in enumerate(pairs):
        ra = last if idx > 0 else None
        rb = None
        a, b = pair.c, pair.p
        while True:
            runs.append((min(a, b), 1))
            new = len(weights)
            weights.append(-1)
            if ra is not None and rb is not None:
                e = (ra, rb) if ra < rb else (rb, ra)
                if e not in edges:
                    raise RuntimeError(f"blowup references v{ra} and v{rb} are not adjacent")
                edges.remove(e)
                edges.add((ra, new))
                edges.add((rb, new))
                weights[ra] -= 1
                weights[rb] -= 1
            elif ra is not None or rb is not None:
                s = ra if ra is not None else rb
                edges.add((s, new))
                weights[s] -= 1
            if a > b:
                rb = new
                a -= b
            elif b > a:
                ra = new
                b -= a
            else:
                last = new
                break
    tree = WeightedTree(tuple(weights), tuple(sorted(edges)))
    return tree, MultiplicitySequence.from_runs(runs, FULL), last


def _series_order(s: list[Fraction]) -> int | None:
    """Index of the first nonzero coefficient; None when s vanishes to its precision."""
    return next((i for i, a in enumerate(s) if a), None)


def _series_quotient(v: list[Fraction], u: list[Fraction], a: int, b: int) -> list[Fraction]:
    """v / u for orders a = ord u <= b = ord v, known to len(v) - a terms."""
    size = len(v) - a
    nz = [(k, uk) for k, uk in enumerate(u[a + 1:size + a], start=1) if uk]
    u0 = u[a]
    q = [Fraction(0)] * size
    for n in range(b - a, size):
        q[n] = (v[n + a] - sum(uk * q[n - k] for k, uk in nz if k <= n)) / u0
    return q


def germ_resolution_oracle(char: PuiseuxCharacteristic, coeffs) -> tuple[WeightedTree, MultiplicitySequence]:
    """Resolve the branch x = t^beta0, y = sum a_i t^beta_i by actual blowups.

    The coordinates are power series with exact rational coefficients,
    known to a common precision.  Each blowup divides the higher-order
    coordinate by the lower-order one u, which costs ord u terms of
    precision, and drops the constant term; the coordinates swap when their
    orders cross.  A coordinate that vanishes to its precision is an axis
    of the chart.  The two axes carry the labels of the exceptional curves
    through the point: each blowup takes one from the weight of each
    labelled curve, joins the new curve to them and cuts the edge between
    them (the proximity calculus).  It stops when the branch is smooth and
    meets exactly one exceptional curve, transversally: the minimal good
    resolution, with the multiplicity of the branch at each blown-up point.
    The blowups use beta0 + beta_g - 1 terms in all, so twice that is ample.
    """
    beta = char.beta
    size = 2 * (beta[0] + beta[-1])
    u, v = [Fraction(0)] * size, [Fraction(0)] * size
    u[beta[0]] = Fraction(1)
    for b, a in zip(beta[1:], coeffs, strict=True):
        v[b] = Fraction(a)
    lu = lv = None          # the exceptional curves {u = 0} and {v = 0}
    weights: list[int] = []
    edges: set[tuple[int, int]] = set()
    mults: list[int] = []
    while True:
        ou, ov = _series_order(u), _series_order(v)
        if ou is None:
            raise RuntimeError("precision exhausted")
        if ov is not None and ov < ou:
            u, v, ou, ov, lu, lv = v, u, ov, ou, lv, lu
        if ou == 1 and (lu is None) != (lv is None) and (lu is not None or ov == 1):
            break
        mults.append(ou)
        new = len(weights)
        weights.append(-1)
        for lab in (lu, lv):
            if lab is not None:
                weights[lab] -= 1
                edges.add((lab, new))
        if lu is not None and lv is not None:
            edges.remove((min(lu, lv), max(lu, lv)))
        q = [Fraction(0)] * (size - ou) if ov is None else _series_quotient(v, u, ou, ov)
        const, q[0] = q[0], Fraction(0)
        size -= ou
        u, v = u[:size], q
        lu, lv = new, lv if const == 0 else None
    tree = WeightedTree(tuple(weights), tuple(sorted(edges)))
    return tree, MultiplicitySequence.from_entries(mults, FULL)


def resolution_invariants_oracle(tree: WeightedTree, c_vertex: int):
    """The five audited resolution values, read off an expanded tree.

    Same order as ``ResolutionInvariants``: (-1)-curves, neighbours of the
    marked curve, branching vertices, discriminant, negative definiteness.
    The determinants come from a vertex-by-vertex pass over a fresh copy of
    the tree, since a tree expanded from a resolution carries the run
    form's values.
    """
    adj = tree.adjacency()
    fresh = WeightedTree(tree.weights, tree.edges)
    return (
        sum(1 for w in tree.weights if w == -1),
        len(adj[c_vertex]),
        sum(1 for nb in adj.values() if len(nb) >= 3),
        discriminant(fresh),
        is_negative_definite(fresh),
    )


def expand_junctions(weights, edges) -> WeightedTree:
    """The tree a junction form stands for.

    Each edge (a, b, k) becomes a path from a to b through k new
    (-2)-vertices.
    """
    weights = list(weights)
    out: list[tuple[int, int]] = []
    for a, b, k in edges:
        path = [a, *range(len(weights), len(weights) + k), b]
        weights += [-2] * k
        out += zip(path, path[1:])
    return WeightedTree(tuple(weights), tuple(out))


def path_order(tree: WeightedTree) -> list[int]:
    """The vertices of a chain tree, read from its tip with the smaller id."""
    adj = tree.adjacency()
    start = min(u for u in adj if len(adj[u]) <= 1)
    order, prev = [start], -1
    while len(order) < len(adj):
        order.append(next(u for u in adj[order[-1]] if u != prev))
        prev = order[-2]
    return order


def chain_oracle(tree: WeightedTree, v: int) -> tuple[int, ...]:
    """Entries of a chain tree with vertex v as 1, heavier side after it.

    The path is read from its tip with the smaller id; the side of v with
    the larger continuant goes last, and on a tie the side toward that tip.
    """
    order = path_order(tree)
    pos = order.index(v)
    left = tuple(-tree.weights[u] for u in reversed(order[:pos]))
    right = tuple(-tree.weights[u] for u in order[pos + 1:])
    if discriminant(Chain(left)) >= discriminant(Chain(right)):
        return right[::-1] + (1,) + left
    return left[::-1] + (1,) + right


def numbered_oracle(item: str, sep: str, first: int, count: int) -> str:
    """`invariants._numbered` id by id: `str` of i for _I and of i + 1 for _J in each item."""
    return sep.join(
        "".join(str(i) if ch == _I else str(i + 1) if ch == _J else ch for ch in item)
        for i in range(first, first + count))


def resolve_output_oracle(std: HNSequence) -> tuple[str, str, str]:
    """`resolve` stdout with --json, as text rows and with --dot -, in that order.

    Printed from the expanded tree with one vertex per blowup, as the CLI
    once did: `json.dumps(obj, indent=2)` of the whole object, one text row
    joined per field, and one DOT line per vertex and per edge.  The tree,
    the multiplicities and the chain come from `simulate_resolution` and
    `chain_oracle`, not from the run form.
    """
    tree, mult, last = simulate_resolution(std.pairs)
    adj = tree.adjacency()
    chain_text = None
    if all(len(nb) <= 2 for nb in adj.values()):
        chain_text = "[" + ",".join(map(str, chain_oracle(tree, last))) + "]"
    obj = {
        "hn": std.to_json_obj(),
        "weights": [str(w) for w in tree.weights],
        "edges": [[str(u), str(v)] for u, v in tree.edges],
        "curve_vertex": str(last),
        "multiplicities": [str(m) for m in mult.entries()],
        "chain": chain_text,
    }
    rows = [
        ("hn", format_hn(std)),
        ("vertices", str(len(tree))),
        ("weights", " ".join(f"v{i}:{w}" for i, w in enumerate(tree.weights))),
        ("edges", " ".join(f"v{u}-v{v}" for u, v in tree.edges)),
        ("curve", f"v{last}"),
        ("mult", mult.to_text()),
    ]
    if chain_text is not None:
        rows.append(("chain", chain_text))
    width = max(len(key) for key, _ in rows)
    text = "".join(f"{key:<{width}}  {value}\n" for key, value in rows)
    lines = ["graph Q {", "  node [shape=circle];"]
    for v, w in enumerate(tree.weights):
        mark = ", shape=doublecircle" if v == last else ""
        lines.append(f'  v{v} [label="{w}"{mark}];')
    lines.append("  E [shape=box];")
    lines += [f"  v{a} -- v{b};" for a, b in tree.edges]
    lines.append(f"  v{last} -- E [style=dashed];")
    lines.append("}")
    return json.dumps(obj, indent=2) + "\n", text, "\n".join(lines) + "\n"


def adjoint_fold_oracle(a: Chain) -> Chain:
    """The adjoint as the star product of the chains [2]*(e-1), folded from the far end."""
    if not a.entries:
        raise ValueError("adjoint of the empty chain is undefined")
    for e in a.entries:
        if e < 2:
            raise EntryBelowTwo(f"entry {e} < 2 has no adjoint")
    out = Chain((2,) * (a.entries[-1] - 1))
    for e in reversed(a.entries[:-1]):
        out = star_concat(out, Chain((2,) * (e - 1)))
    return out


def chain_fiber_oracle(tree: WeightedTree) -> FiberReport:
    """`classify_fiber` on a chain of at least two vertices, read as one path.

    The path runs from its tip with the smaller id; with a unique
    (-1)-curve, the entries before it are U and those after it must be the
    fold adjoint of U.
    """
    mu = fiber_multiplicities(tree)
    minus_ones = tuple(v for v, w in enumerate(tree.weights) if w == -1)
    if len(minus_ones) == 1:
        order = path_order(tree)
        pos = order.index(minus_ones[0])
        before = tuple(-tree.weights[v] for v in order[:pos])
        after = tuple(-tree.weights[v] for v in order[pos + 1:])
        if not before or not after:
            raise NotAFiber("unique (-1)-curve sits at a tip of the chain")
        try:
            star = adjoint_fold_oracle(Chain(before))
        except EntryBelowTwo as exc:
            raise NotAFiber(f"chain fiber is not [U,1,U*]: {exc}") from exc
        if star.entries != after:
            raise NotAFiber(
                f"chain fiber is not [U,1,U*]: adjoint of {before} is "
                f"{star.entries}, found {after}")
    return FiberReport(CHAIN, mu, minus_ones)


def standardize_fixpoint_oracle(seq: HNSequence) -> HNSequence:
    """`standardize` as a loop of R1 sweeps and single R2 steps until nothing changes."""
    if seq.flavor != STANDARD or not validate(seq).ok:
        require_valid(seq.with_flavor(RAW))
    pairs = list(seq.pairs)
    while True:
        changed = False
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
    out = HNSequence(tuple(pairs), STANDARD)
    report = validate(out)
    if not report.ok:
        raise NotReducible(
            f"fixpoint {format_hn(out)} is not standard: {report.summary()}")
    return out


def blow_down_oracle(t: WeightedTree, v: int) -> WeightedTree:
    """`blow_down` by scanning every edge for v's neighbours and re-sorting."""
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
    return WeightedTree(
        tuple(weights), tuple(sorted((remap(a), remap(b)) for a, b in edges)))


def blow_up_oracle(t: WeightedTree, site) -> WeightedTree:
    """`blow_up` by listing the new edges and re-sorting the whole edge tuple."""
    new = len(t.weights)
    weights = [*t.weights, -1]
    if isinstance(site, int):
        if not 0 <= site < new:
            raise ValueError(f"no vertex {site}")
        weights[site] -= 1
        edges = [*t.edges, (site, new)]
    else:
        a, b = site
        e = (a, b) if a < b else (b, a)
        if e not in t.edges:
            raise ValueError(f"no edge {e}")
        weights[a] -= 1
        weights[b] -= 1
        edges = [x for x in t.edges if x != e] + [(e[0], new), (e[1], new)]
    return WeightedTree(tuple(weights), tuple(sorted(edges)))


def contraction_order_oracle(tree: WeightedTree):
    """Blowdowns by a full min-scan for the smallest eligible (-1)-vertex.

    Returns the surviving weights keyed by original ids and the order.
    """
    weights = dict(enumerate(tree.weights))
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    trace: list[int] = []
    while len(weights) > 1:
        v = min((x for x in weights if weights[x] == -1 and len(adj[x]) <= 2),
                default=None)
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
    return weights, trace


def char_to_multiplicity_oracle(char: PuiseuxCharacteristic) -> MultiplicitySequence:
    """Nested Euclidean scheme on the consecutive differences of the beta_i.

    Stage i runs the Euclidean algorithm on (beta_i - beta_{i-1}) against
    the divisor carried out of stage i-1 (initially beta0).
    """
    beta = char.beta
    runs: list[tuple[int, int]] = [(beta[0], 1)]
    carry = beta[0]
    for i in range(1, len(beta)):
        a, b = beta[i] - beta[i - 1], carry
        while True:
            s, r = divmod(a, b)
            if s:
                runs.append((b, s))
            if r == 0:
                carry = b
                break
            a, b = b, r
    return MultiplicitySequence.from_runs(runs, FULL)


def semigroup_membership_oracle(generators):
    """Recursive representability test, independent of the gap sieve."""
    gens = tuple(sorted(generators))

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def member(n: int) -> bool:
        if n == 0:
            return True
        if n < 0:
            return False
        return any(member(n - g) for g in gens)

    return member


def sieve_gaps_oracle(generators) -> frozenset[int]:
    """Gap set of any numerical semigroup, by sieving representable integers."""
    ordered = sorted(set(generators))
    lowest = ordered[0]
    if lowest == 1:
        return frozenset()
    # Once `lowest` consecutive integers are representable, everything above
    # them is too; double the sieve window until such a run appears.
    limit = 2 * max(ordered) + 2
    while True:
        reach = bytearray(limit)
        reach[0] = 1
        for n in range(1, limit):
            for v in ordered:
                if v > n:
                    break
                if reach[n - v]:
                    reach[n] = 1
                    break
        run = 0
        for n in range(limit):
            if reach[n]:
                run += 1
                if run == lowest:
                    start = n - lowest + 1
                    return frozenset(m for m in range(start) if not reach[m])
            else:
                run = 0
        limit *= 2


def apery_gaps_oracle(generators) -> frozenset[int]:
    """Gap set of telescopic generators, read off the Apery set of b0.

    The Apery set is the b0 normal-form sums with a_0 = 0; below each
    element w lie the gaps w - b0, w - 2*b0, ... down to w mod b0.
    """
    b0 = generators[0]
    apery, e = [0], b0
    for b in generators[1:]:
        n = e // gcd(e, b)
        e //= n
        apery = [w + a * b for a in range(n) for w in apery]
    return frozenset(k for w in apery for k in range(w % b0, w, b0))


def alexander_from_gaps_oracle(gaps, conductor: int) -> tuple[int, ...]:
    """Coefficients of 1 + (t-1) * sum of t^k over the gaps, low degree first."""
    coeffs = [0] * (conductor + 1)
    coeffs[0] = 1
    for k in gaps:
        coeffs[k] -= 1
        coeffs[k + 1] += 1
    return tuple(coeffs)


# the three values an Alexander coefficient takes
_COEFF_TEXT = {-1: "-1", 0: "0", 1: "1"}


def invariants_output_oracle(record: CuspRecord) -> tuple[str, str]:
    """`invariants` stdout with --json and as text rows, in that order.

    Printed from whole lists, as the CLI once did: one decimal string per
    gap and per Alexander coefficient, `json.dumps(obj, indent=2)` of the
    whole object, and one text row joined per field.
    """
    sg = record.semigroup
    obj = {
        "hn": record.hn.to_json_obj(),
        "mult_reduced": list(map(str, record.mult.reduced().entries())),
        "puiseux_char": list(map(str, record.char.beta)),
        "puiseux_pairs": [[str(m), str(n)] for m, n in record.puiseux.pairs],
        "zariski_pairs": [[str(b), str(a)] for b, a in record.zariski.pairs],
        "semigroup_generators": list(map(str, sg.generators)),
        "gaps": list(map(str, sorted(sg.gaps))),
        "alexander_coeffs": list(map(_COEFF_TEXT.__getitem__, alexander_polynomial(sg))),
        "M": str(record.M),
        "I": str(record.I),
    }
    rows = [
        ("hn", format_hn(record.hn)),
        ("mult", ",".join(obj["mult_reduced"])),
        ("char", record.char.to_text()),
        ("puiseux", record.puiseux.to_text()),
        ("zariski", record.zariski.to_text()),
        ("semigroup", ",".join(obj["semigroup_generators"])),
        ("gaps", ",".join(obj["gaps"])),
        ("alexander", ",".join(obj["alexander_coeffs"])),
        ("M", obj["M"]),
        ("I", obj["I"]),
    ]
    width = max(len(key) for key, _ in rows)
    text = "".join(f"{key:<{width}}  {value}\n" for key, value in rows)
    return json.dumps(obj, indent=2) + "\n", text


# ----------------------------------------------------- hypothesis strategies


@st.composite
def standard_hn_sequences(draw, max_h: int = 3, cap: int = 500) -> HNSequence:
    seed = draw(st.integers(0, 2**48 - 1))
    return random_standard_hn(random.Random(seed), max_h=max_h, cap=cap)


@st.composite
def resolution_corpus_hn(draw, cap: int = 10_000) -> HNSequence:
    """The resolution corpus: `random_standard_hn` or `stress_standard_hn`."""
    rng = random.Random(draw(st.integers(0, 2**48 - 1)))
    if draw(st.booleans()):
        return stress_standard_hn(rng, cap=cap)
    return random_standard_hn(rng, max_h=4, cap=cap)


@st.composite
def raw_hn_sequences(draw, max_h: int = 4) -> HNSequence:
    """Valid raw sequences: gcd chain by construction, coprime tail."""
    h = draw(st.integers(1, max_h))
    ratios = [draw(st.integers(1, 6)) for _ in range(h)]
    cvals = [1]
    for r in reversed(ratios):
        cvals.append(cvals[-1] * r)
    cvals.reverse()
    pairs = []
    for j in range(h):
        m = draw(st.integers(1, 9))
        if j == h - 1:
            # terminal pair needs gcd(c_h, p_h) = 1
            while gcd(m, cvals[j]) != 1:
                m += 1
        else:
            # keep gcd(c_j, p_j) = c_{j+1}: multiplier coprime to the ratio
            while gcd(m, ratios[j]) != 1:
                m += 1
        pairs.append(HNPair(cvals[j], cvals[j + 1] * m))
    return HNSequence(tuple(pairs), RAW)


@st.composite
def puiseux_characteristics(draw, max_beta0: int = 40, max_step: int = 60) -> PuiseuxCharacteristic:
    """Valid characteristics: each beta_i is chosen off the multiples of e_{i-1}."""
    beta = [draw(st.integers(2, max_beta0))]
    e = beta[0]
    while e > 1:
        b = beta[-1] + draw(st.integers(1, max_step))
        if b % e == 0:
            b += 1
        beta.append(b)
        e = gcd(e, b)
    return PuiseuxCharacteristic(tuple(beta))


@st.composite
def zariski_pair_lists(draw, max_h: int = 4, max_b: int = 7, max_a: int = 60) -> PairList:
    """Valid Zariski pairs (b_i, a_i): b_i >= 2, a_i >= 1 prime to b_i, a_1 > b_1."""
    pairs = []
    for k in range(draw(st.integers(1, max_h))):
        b = draw(st.integers(2, max_b))
        a = draw(st.integers(b + 1 if k == 0 else 1, max_a))
        while gcd(a, b) != 1:
            a += 1
        pairs.append((b, a))
    return PairList(ZARISKI, tuple(pairs))


def chains(min_size: int = 1, max_size: int = 8, low: int = 2, high: int = 6):
    return st.lists(st.integers(low, high), min_size=min_size,
                    max_size=max_size).map(lambda xs: Chain(tuple(xs)))


@st.composite
def weighted_trees(draw, max_size: int = 9, wlow: int = -6, whigh: int = -1) -> WeightedTree:
    n = draw(st.integers(1, max_size))
    weights = tuple(draw(st.integers(wlow, whigh)) for _ in range(n))
    edges = tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n))
    return WeightedTree(weights, edges)
