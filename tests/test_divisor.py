import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import cuspforge
from cuspforge import divisor
from cuspforge.divisor import (
    CHAIN,
    Chain,
    ContractionResult,
    FiberReport,
    MarkedResolution,
    NONDEGENERATE,
    OTHER,
    SPECIAL_FORK,
    WeightedTree,
    adjoint,
    blow_down,
    blow_up,
    classify_fiber,
    contracts_to_smooth_point,
    contracts_to_zero_curve,
    discriminant,
    dot_export,
    fiber_multiplicities,
    hn_chain_identities,
    is_negative_definite,
    resolution_graph,
    star_concat,
)
from cuspforge.divisor import _contract_all, _edge_walk, _subtree_determinants
from cuspforge.errors import (
    CuspforgeError,
    EntryBelowTwo,
    NotAFiber,
    NotContractible,
    NotCoprime,
)
from cuspforge.hn import STANDARD, HNPair, format_hn, parse_hn, standardize
from cuspforge.invariants import (
    FULL,
    compute_M_I,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    semigroup_of,
)
from support import (
    adjoint_fold_oracle,
    bareiss_det,
    blow_down_oracle,
    blow_up_oracle,
    chain_fiber_oracle,
    chain_oracle,
    chains,
    continuant_oracle,
    contraction_order_oracle,
    expand_junctions,
    gauss_jordan_kernel,
    germ_resolution_oracle,
    induced_discriminant,
    negated_matrix,
    random_fiber,
    random_standard_hn,
    random_tree,
    replaced,
    resolution_corpus_hn,
    resolution_invariants_oracle,
    simulate_resolution,
    standard_hn_sequences,
    stress_standard_hn,
    sylvester_definite_oracle,
    weighted_trees,
)


def ch(*entries):
    return Chain(tuple(entries))


def outcome(f, *args):
    """The value of f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (ValueError, CuspforgeError) as exc:
        return type(exc).__name__, str(exc)


def traced_peak(f) -> int:
    """The tracemalloc peak, in bytes, of calling f()."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expanded(tree: WeightedTree) -> tuple[str, ...]:
    """The names of the tree's fields that its instance dict holds."""
    return tuple(name for name in ("weights", "edges") if name in tree.__dict__)


def random_site(rng, t):
    """A random vertex or, half the time when there is one, a random edge."""
    if rng.random() < 0.5 or not t.edges:
        return rng.randrange(len(t))
    return t.edges[rng.randrange(len(t.edges))]


class TestWeightedTree:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2 edges"):
            WeightedTree((-2, -2, -2), ((0, 1),))
        with pytest.raises(ValueError, match="duplicate"):
            WeightedTree((-2, -2), ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            WeightedTree((-2, -2, -2), ((0, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"bad edge \(0,2\) on 2 vertices"):
            WeightedTree((-2, -2), ((0, 2),))
        with pytest.raises(ValueError, match=r"bad edge \(1,1\)"):
            WeightedTree((-2, -2), ((1, 1),))
        with pytest.raises(ValueError, match="cycle"):
            WeightedTree((-2,) * 4, ((0, 1), (1, 2), (0, 2)))

    def test_empty_and_single(self):
        assert len(WeightedTree((), ())) == 0
        assert len(WeightedTree((-1,), ())) == 1

    def test_equality_up_to_isomorphism(self):
        a = WeightedTree((-2, -3, -2), ((0, 1), (1, 2)))
        b = WeightedTree((-3, -2, -2), ((1, 0), (0, 2)))
        assert a == b and hash(a) == hash(b)
        c = WeightedTree((-2, -2, -3), ((0, 1), (1, 2)))
        assert a != c

    def test_pickle_equality_across_processes(self):
        # the other process hashes an unrelated tree first, so a code that
        # depended on what a process had seen before would differ here
        script = (
            "import pickle, sys\n"
            "from cuspforge.divisor import WeightedTree\n"
            "hash(WeightedTree((-7,), ()))\n"
            "t = WeightedTree((-2, -1, -3), ((0, 1), (1, 2)))\n"
            "hash(t)\n"
            "sys.stdout.buffer.write(pickle.dumps(t))\n"
        )
        src = os.path.dirname(os.path.dirname(cuspforge.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        t = pickle.loads(proc.stdout)
        same = WeightedTree((-3, -1, -2), ((0, 1), (1, 2)))
        assert t == same and hash(t) == hash(same)
        assert t != WeightedTree((-2, -2, -3), ((0, 1), (1, 2)))

    def test_long_chain_equality(self):
        # codes stay shallow however long the chain (this one is 2001 deep)
        a = ch(*([2] * 2000 + [3] + [2] * 2000)).to_tree()
        b = ch(*([2] * 2000 + [3] + [2] * 2000)).reverse().to_tree()
        c = ch(*([2] * 1999 + [3] + [2] * 2001)).to_tree()
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_adjacency(self):
        t = WeightedTree((-2, -2, -2), ((2, 0), (1, 2)))
        assert t.adjacency() == {0: (2,), 1: (2,), 2: (0, 1)}


class TestChain:
    def test_reversal_equality(self):
        assert ch(2, 3, 4) == ch(4, 3, 2)
        assert hash(ch(2, 3, 4)) == hash(ch(4, 3, 2))
        assert ch(2, 3) != ch(2, 4)

    def test_str(self):
        assert str(ch(2, 2, 3)) == "[2,2,3]"

    def test_from_runs(self):
        assert Chain.from_runs([(2, 3), 5]) == ch(2, 2, 2, 5)
        assert Chain.from_runs([(2, 0), 3]) == ch(3)
        assert Chain.from_runs([5, (2, -1), 3]) == ch(6)
        assert Chain.from_runs([(2, -1), 3, (2, 2)]) == ch(2, 2)
        with pytest.raises(ValueError, match="negative run count on value 4"):
            Chain.from_runs([(4, -1), 3])
        with pytest.raises(ValueError, match="negative run count -2"):
            Chain.from_runs([(2, -2), 3])
        with pytest.raises(ValueError, match="followed by"):
            Chain.from_runs([5, (2, -1), 4])

    def test_entries_must_be_integers(self):
        # 2.7 is refused, not truncated to 2
        with pytest.raises(TypeError):
            Chain((2.7, 3))
        with pytest.raises(TypeError):
            Chain(("2", 3))
        with pytest.raises(TypeError):
            Chain.from_runs([(2.5, 1), 3])
        with pytest.raises(TypeError):
            Chain.from_runs([(2, 1.0), 3])
        assert Chain([2, 3]).entries == (2, 3)

    def test_to_tree(self):
        t = ch(2, 3).to_tree()
        assert t.weights == (-2, -3)
        assert t.edges == ((0, 1),)


class TestDiscriminant:
    @pytest.mark.parametrize("entries,d", [
        ((), 1),
        ((2,), 2),
        ((2, 2, 2), 4),
        ((5, 2, 2), 13),
        ((2, 2, 2, 4), 13),
        ((4, 2, 2, 2), 13),
        ((2, 3), 5),
        ((2, 1, 2), 0),
        ((2, 1, 1, 2), -3),
    ])
    def test_chain_fixtures(self, entries, d):
        assert discriminant(Chain(entries)) == d

    def test_all_twos(self):
        for k in range(1, 30):
            assert discriminant(Chain((2,) * k)) == k + 1

    def test_matches_sympy_determinant(self, rng):
        for _ in range(60):
            t = random_tree(rng, rng.randint(1, 8), wlow=-5)
            assert discriminant(t) == sympy.Matrix(negated_matrix(t)).det()

    def test_edge_split_identity(self, rng):
        # removing an edge (u,v): d(T) = d(T1)d(T2) - d(T1-u)d(T2-v)
        for _ in range(80):
            t = random_tree(rng, rng.randint(2, 12))
            u, v = t.edges[rng.randrange(len(t.edges))]
            adj = t.adjacency()
            side = {u}
            stack = [u]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in side and (x, y) != (u, v) and (y, x) != (v, u):
                        side.add(y)
                        stack.append(y)
            t1 = side
            t2 = set(range(len(t))) - side
            lhs = discriminant(t)
            rhs = (induced_discriminant(t, t1) * induced_discriminant(t, t2)
                   - induced_discriminant(t, t1 - {u})
                   * induced_discriminant(t, t2 - {v}))
            assert lhs == rhs

    @given(weighted_trees(max_size=12))
    def test_tree_routes_agree(self, t):
        assert discriminant(t) == bareiss_det(negated_matrix(t))

    def test_empty_tree(self):
        assert discriminant(WeightedTree((), ())) == 1

    @given(chains(min_size=0, max_size=12, low=-3, high=9),
           st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 12))
    def test_chain_matches_continuant_oracle(self, a, head, middle, tail, cut):
        assert discriminant(a) == continuant_oracle(a.entries)
        # long runs of 2 at both ends and inside, each read as one edge
        cut = min(cut, len(a))
        long = Chain((2,) * head + a.entries[:cut] + (2,) * middle
                     + a.entries[cut:] + (2,) * tail)
        assert discriminant(long) == continuant_oracle(long.entries)
        assert is_negative_definite(long) == sylvester_definite_oracle(long.to_tree())

    def test_long_chain_of_twos_is_one_edge(self):
        # 2^k, 3, 2^k: read as three vertices, not 2k + 1
        k = 100_000
        a = Chain((2,) * k + (3,) + (2,) * k)
        t0 = time.process_time()
        d, definite = discriminant(a), is_negative_definite(a)
        assert time.process_time() - t0 < 0.1
        assert d == continuant_oracle(a.entries) and definite


class TestOnePass:
    """discriminant and is_negative_definite share one pass per tree."""

    def test_one_pass_per_tree(self, monkeypatch):
        calls = []
        real = divisor._subtree_determinants
        monkeypatch.setattr(divisor, "_subtree_determinants",
                            lambda weight, *rest: calls.append(weight) or real(weight, *rest))
        t = WeightedTree((-2, -1, -3, -2), ((0, 1), (1, 2), (1, 3)))
        assert (discriminant(t), is_negative_definite(t)) == (-4, False)
        assert (discriminant(t), is_negative_definite(t)) == (-4, False)
        assert calls == [t.weights]
        res = resolution_graph(standardize(parse_hn("6/4,2/3")))
        assert (discriminant(res.tree), is_negative_definite(res.tree)) == (1, True)
        assert len(calls) == 2

    @given(weighted_trees(wlow=-4, whigh=0))
    def test_pickled_tree_answers_both(self, t):
        answers = (discriminant(t), is_negative_definite(t))
        hash(t)
        u = pickle.loads(pickle.dumps(t))
        assert (discriminant(u), is_negative_definite(u)) == answers
        assert u == t and hash(u) == hash(t)
        fresh = WeightedTree(t.weights, t.edges)
        assert fresh == u and hash(fresh) == hash(u)
        assert (discriminant(fresh), is_negative_definite(fresh)) == answers


class TestJunctionForm:
    """Each producer's junction form stands for its own divisor, vertex by vertex."""

    @settings(max_examples=60)
    @given(resolution_corpus_hn())
    def test_resolution(self, s):
        res = resolution_graph(s)
        assert expand_junctions(*res._junction_form()) == res.tree

    @given(chains(min_size=0, max_size=12, low=-3, high=9),
           st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 12))
    def test_chain(self, a, head, middle, tail, cut):
        # runs of 2 at both tips and inside, as in the continuant test
        cut = min(cut, len(a))
        for c in (a, Chain((2,) * head + a.entries[:cut] + (2,) * middle
                           + a.entries[cut:] + (2,) * tail)):
            assert expand_junctions(*c._junction_form()) == c.to_tree()

    @given(weighted_trees())
    def test_tree(self, t):
        assert expand_junctions(*t._junction_form()) == t


class TestNegativeDefinite:
    def test_fixtures(self):
        assert is_negative_definite(ch(2, 2).to_tree())
        assert not is_negative_definite(ch(2, 1, 2).to_tree())
        assert not is_negative_definite(ch(0).to_tree())

    def test_matches_sympy(self, rng):
        for _ in range(60):
            t = random_tree(rng, rng.randint(1, 7), wlow=-4, whigh=0)
            m = sympy.Matrix([[-x for x in row] for row in negated_matrix(t)])
            assert is_negative_definite(t) == bool(m.is_negative_definite)

    def test_empty_tree(self):
        assert is_negative_definite(WeightedTree((), ()))
        assert is_negative_definite(Chain(()))

    @pytest.mark.parametrize("tree", [
        ch(5, 2, 1, 2).to_tree(),  # the subtree [2,1,2] is singular
        ch(1, 1).to_tree(),  # so is the whole tree
        WeightedTree((-3, -1, -1), ((0, 1), (1, 2))),
        WeightedTree((-2, -1, -2, -2), ((0, 1), (1, 2), (1, 3))),
        WeightedTree((-2, -2, 0), ((0, 1), (1, 2))),
    ])
    def test_zero_subtree_determinant(self, tree):
        assert 0 in _subtree_determinants(*tree._junction_form(), 0)[2]
        assert discriminant(tree) == bareiss_det(negated_matrix(tree))
        assert not is_negative_definite(tree)
        assert not sylvester_definite_oracle(tree)

    @given(weighted_trees(wlow=-4, whigh=0))
    def test_matches_fraction_pivots(self, t):
        assert is_negative_definite(t) == sylvester_definite_oracle(t)


class TestStarAndAdjoint:
    def test_star_fixture(self):
        assert star_concat(ch(2, 3), ch(4, 2)) == ch(2, 6, 2)

    def test_star_neutral(self):
        assert star_concat(ch(1), ch(5, 2)) == ch(5, 2)
        assert star_concat(ch(5, 2), ch(1)) == ch(5, 2)

    def test_star_needs_nonempty(self):
        with pytest.raises(ValueError):
            star_concat(ch(), ch(2))

    @given(chains(), chains(), chains())
    def test_star_associative(self, a, b, c):
        assert star_concat(star_concat(a, b), c) == star_concat(a, star_concat(b, c))

    @pytest.mark.parametrize("a,b", [
        ((5, 2, 2), (4, 2, 2, 2)),
        ((2, 2), (3,)),
        ((2, 3), (2, 3)),
        ((2,), (2,)),
        ((3,), (2, 2)),
    ])
    def test_adjoint_fixtures(self, a, b):
        assert adjoint(Chain(a)) == Chain(b)

    def test_adjoint_errors(self):
        with pytest.raises(EntryBelowTwo):
            adjoint(ch(2, 1, 3))
        with pytest.raises(ValueError):
            adjoint(ch())

    @given(chains(low=2))
    def test_adjoint_involution_and_discriminant(self, a):
        assert adjoint(adjoint(a)) == a
        assert discriminant(adjoint(a)) == discriminant(a)
        assert adjoint(a.reverse()) == adjoint(a).reverse()

    @given(chains(min_size=0, max_size=10, low=0, high=9))
    def test_adjoint_matches_fold_oracle(self, a):
        got, want = outcome(adjoint, a), outcome(adjoint_fold_oracle, a)
        assert got == want
        if isinstance(got, Chain):
            assert got.entries == want.entries

    def test_long_adjoint_is_linear(self):
        a = Chain(tuple(random.Random(3000).randint(2, 6) for _ in range(3000)))
        start = time.process_time()
        star = adjoint(a)
        assert time.process_time() - start < 0.01
        assert discriminant(star) == discriminant(a)
        assert adjoint(star).entries == a.entries


class TestBlowUpDown:
    def test_outer(self):
        up = blow_up(ch(3).to_tree(), 0)
        assert up.weights == (-4, -1)
        assert up.edges == ((0, 1),)

    def test_inner(self):
        up = blow_up(ch(3, 1).to_tree(), (0, 1))
        assert up.weights == (-4, -2, -1)
        assert set(up.edges) == {(0, 2), (1, 2)}

    def test_site_errors(self):
        with pytest.raises(ValueError, match="no vertex"):
            blow_up(ch(2).to_tree(), 5)
        with pytest.raises(ValueError, match="no edge"):
            blow_up(ch(2, 2).to_tree(), (0, 5))

    def test_blow_down_requires_minus_one(self):
        with pytest.raises(NotContractible, match="weight"):
            blow_down(ch(2, 2).to_tree(), 0)

    def test_blow_down_requires_low_degree(self):
        star = WeightedTree((-1, -2, -2, -2), ((0, 1), (0, 2), (0, 3)))
        with pytest.raises(NotContractible, match="degree"):
            blow_down(star, 0)

    def test_round_trip(self, rng):
        for _ in range(500):
            t = random_tree(rng, rng.randint(1, 9))
            site = random_site(rng, t)
            up = blow_up(t, site)
            down = blow_down(up, len(t))  # the new vertex always gets the next id
            assert down.weights == t.weights
            assert down.edges == t.edges

    def test_built_trees_are_normalized(self, rng):
        # trees built without re-validation equal their validated rebuild
        for _ in range(300):
            t = random_tree(rng, rng.randint(1, 9), wlow=-3, whigh=1)
            built = [blow_up(t, random_site(rng, t)), Chain(tuple(-w for w in t.weights)).to_tree()]
            for v in range(len(t)):
                if t.weights[v] == -1 and len(t.adjacency()[v]) <= 2:
                    down, want = blow_down(t, v), blow_down_oracle(t, v)
                    assert (down.weights, down.edges) == (want.weights, want.edges)
                    built.append(down)
            for b in built:
                rebuilt = WeightedTree(b.weights, b.edges)
                assert (rebuilt.weights, rebuilt.edges) == (b.weights, b.edges)

    def test_blow_down_matches_oracle_on_large_fiber(self):
        t = random_fiber(random.Random(2000), 2000)
        adj = t.adjacency()
        eligible = [v for v in range(len(t)) if t.weights[v] == -1 and len(adj[v]) <= 2]
        assert eligible
        for v in eligible:
            down, want = blow_down(t, v), blow_down_oracle(t, v)
            assert (down.weights, down.edges) == (want.weights, want.edges)

    @given(weighted_trees(wlow=-3, whigh=0), st.integers(0, 20))
    def test_blow_down_outcome_matches_oracle(self, t, v):
        # ineligible vertices too: the same error type and text
        got, want = outcome(blow_down, t, v), outcome(blow_down_oracle, t, v)
        if isinstance(want, WeightedTree):
            assert (got.weights, got.edges) == (want.weights, want.edges)
        else:
            assert got == want

    def test_discriminant_invariant(self, rng):
        for _ in range(500):
            t = random_tree(rng, rng.randint(1, 9))
            site = random_site(rng, t)
            assert discriminant(blow_up(t, site)) == discriminant(t)

    @given(weighted_trees(wlow=-3, whigh=0))
    def test_blow_up_outcome_matches_oracle(self, t):
        # every vertex and every ordered pair of ids, one past each end too:
        # edges either way round, non-edges and missing vertices
        ids = range(-1, len(t) + 1)
        for site in [*ids, *((a, b) for a in ids for b in ids)]:
            got, want = outcome(blow_up, t, site), outcome(blow_up_oracle, t, site)
            if isinstance(want, WeightedTree):
                assert (got.weights, got.edges) == (want.weights, want.edges)
            else:
                assert got == want


def _brute_contracts_to_smooth(t):
    if len(t) == 1:
        return t.weights[0] == -1
    adj = t.adjacency()
    for v in range(len(t)):
        if t.weights[v] == -1 and len(adj[v]) <= 2:
            if _brute_contracts_to_smooth(blow_down(t, v)):
                return True
    return False


class TestContraction:
    def test_smooth_fixtures(self):
        res = contracts_to_smooth_point(ch(2, 2, 2, 1, 5, 2, 2).to_tree())
        assert res
        assert len(res.order) == 6
        assert contracts_to_smooth_point(ch(2, 3, 1, 2).to_tree())
        assert not contracts_to_smooth_point(ch(2, 1, 2).to_tree())
        assert not contracts_to_smooth_point(ch(2, 2).to_tree())
        assert contracts_to_smooth_point(WeightedTree((-1,), ()))

    def test_zero_curve_fixtures(self):
        assert contracts_to_zero_curve(ch(2, 1, 2).to_tree())
        assert contracts_to_zero_curve(ch(3, 1, 2, 2).to_tree())
        assert not contracts_to_zero_curve(ch(2, 1, 1, 2).to_tree())
        assert not contracts_to_smooth_point(ch(2, 1, 1, 2).to_tree())

    def test_empty_divisor_contracts_to_nothing(self):
        # no vertex survives, so neither a (-1)-vertex nor a 0-curve does
        for empty in (WeightedTree((), ()), ch()):
            assert contracts_to_smooth_point(empty) == ContractionResult(False, ())
            assert contracts_to_zero_curve(empty) is False

    def test_result_reports_order(self):
        res = contracts_to_smooth_point(ch(2, 1, 3).to_tree())
        assert bool(res) and res.order[0] == 1

    def test_greedy_matches_exhaustive(self, rng):
        # if any blow-down order works, the greedy one must work too
        agree = disagreements = 0
        for _ in range(300):
            t = random_tree(rng, rng.randint(1, 6), wlow=-3, whigh=-1)
            greedy = bool(contracts_to_smooth_point(t))
            brute = _brute_contracts_to_smooth(t)
            agree += greedy == brute
            disagreements += greedy != brute
        assert disagreements == 0

    def test_blowup_corpus_contracts(self, rng):
        # anything built from a point by blowing up must contract back
        for _ in range(120):
            t = WeightedTree((-1,), ())
            for _ in range(rng.randint(1, 7)):
                site = random_site(rng, t)
                t = blow_up(t, site)
            assert contracts_to_smooth_point(t)

    @given(st.integers(0, 2**48 - 1), st.integers(0, 40))
    def test_order_matches_min_scan_oracle(self, seed, steps):
        rng = random.Random(seed)
        for t in (random_fiber(rng, steps), random_tree(rng, rng.randint(1, 9), -3, 0)):
            assert _contract_all(t) == contraction_order_oracle(t)

    def test_large_fiber_contracts_fast(self):
        t = random_fiber(random.Random(2000), 2000)
        cpu = []
        for _ in range(3):
            start = time.process_time()
            assert contracts_to_zero_curve(t)
            cpu.append(time.process_time() - start)
        assert min(cpu) < 0.01


class TestFibers:
    @pytest.mark.parametrize("entries,mu", [
        ((2, 1, 2), (1, 2, 1)),
        ((2, 2, 1, 3), (1, 2, 3, 1)),
        ((0,), (1,)),
        ((1, 2, 2, 2, 2, 1), (1, 1, 1, 1, 1, 1)),
    ])
    def test_multiplicity_fixtures(self, entries, mu):
        t = Chain(entries).to_tree()
        assert fiber_multiplicities(t) == mu == gauss_jordan_kernel(t)

    def test_minimal_fork_multiplicities(self):
        fork = WeightedTree((-2, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
        assert fiber_multiplicities(fork) == (2, 1, 1, 2)

    def test_empty_divisor_rejected(self):
        with pytest.raises(NotAFiber, match="empty divisor"):
            fiber_multiplicities(WeightedTree((), ()))

    def test_branching_minus_one_curve_rejected(self):
        # a numerical fiber (multiplicities 3,1,1,1) whose (-1)-curve branches
        star = WeightedTree((-1, -3, -3, -3), ((0, 1), (0, 2), (0, 3)))
        assert fiber_multiplicities(star) == (3, 1, 1, 1)
        with pytest.raises(NotAFiber, match=r"\(-1\)-curve 0 is branching"):
            classify_fiber(star)

    def test_fork_without_two_simple_twigs_is_other(self):
        # one branching vertex, but only one of its twigs is a [2] of multiplicity 1
        fiber = random_fiber(random.Random(0), 6)
        degrees = sorted(len(nb) for nb in fiber.adjacency().values())
        assert degrees == [1, 1, 1, 2, 2, 2, 3]
        assert classify_fiber(fiber) == FiberReport(OTHER, (1, 1, 1, 2, 3, 1, 1), (0, 4, 5, 6))

    def test_nonsingular_rejected(self):
        with pytest.raises(NotAFiber, match="kernel"):
            fiber_multiplicities(ch(2, 2).to_tree())

    def test_mixed_sign_kernel_rejected(self):
        with pytest.raises(NotAFiber, match="not positive"):
            fiber_multiplicities(ch(0, 4, 0).to_tree())

    def test_kernel_vector_annihilates(self):
        # kernel property double-checked against plain matrix multiplication
        trees = [Chain(entries).to_tree() for entries in [(2, 1, 2), (2, 2, 1, 3), (3, 1, 2, 2)]]
        trees.append(WeightedTree((-2, -2, -2, -1), ((0, 1), (0, 2), (0, 3))))
        fiber_rng = random.Random(0xF1B)
        trees += [random_fiber(fiber_rng, steps) for steps in range(1, 40)]
        for t in trees:
            mu = fiber_multiplicities(t)
            for row in negated_matrix(t):
                assert sum(a * b for a, b in zip(row, mu)) == 0

    @given(st.integers(0, 2**48 - 1), st.integers(0, 12))
    def test_blown_up_fibers_match_oracle(self, seed, steps):
        t = random_fiber(random.Random(seed), steps)
        assert fiber_multiplicities(t) == gauss_jordan_kernel(t)

    @given(weighted_trees(wlow=-4, whigh=1))
    def test_matches_gauss_jordan_oracle(self, t):
        try:
            want = gauss_jordan_kernel(t)
        except NotAFiber:
            with pytest.raises(NotAFiber):
                fiber_multiplicities(t)
        else:
            assert fiber_multiplicities(t) == want

    @pytest.mark.parametrize("tree,match", [
        (WeightedTree((-1,), ()), "kernel"),
        (WeightedTree((3,), ()), "kernel"),
        # root value 0, but the subtree at the far tip is singular
        (ch(0, 4, 0).to_tree(), "not positive"),
        # a two-dimensional kernel
        (WeightedTree((0, 0, 0, 0), ((0, 1), (0, 2), (0, 3))), "not positive"),
    ])
    def test_fixed_non_fibers(self, tree, match):
        with pytest.raises(NotAFiber):
            gauss_jordan_kernel(tree)
        with pytest.raises(NotAFiber, match=match):
            fiber_multiplicities(tree)

    def test_large_blown_up_fiber(self):
        # the elimination oracle takes seconds here; check the kernel directly
        t = random_fiber(random.Random(300), 300)
        start = time.process_time()
        mu = fiber_multiplicities(t)
        assert time.process_time() - start < 0.5
        assert min(mu) > 0 and math.gcd(*mu) == 1
        for row in negated_matrix(t):
            assert sum(a * b for a, b in zip(row, mu)) == 0

    def test_classification_fixtures(self):
        assert classify_fiber(ch(0).to_tree()).shape == NONDEGENERATE
        assert classify_fiber(ch(2, 1, 2).to_tree()).shape == CHAIN
        assert classify_fiber(ch(2, 2, 1, 3).to_tree()).shape == CHAIN
        fork = WeightedTree((-2, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
        rep = classify_fiber(fork)
        assert rep.shape == SPECIAL_FORK
        assert rep.multiplicities == (2, 1, 1, 2)
        assert rep.minus_one_vertices == (3,)

    def test_degree_four_center_is_other(self):
        d4 = WeightedTree((-2,) * 5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        assert fiber_multiplicities(d4) == (2, 1, 1, 1, 1)
        assert classify_fiber(d4).shape == OTHER

    def test_branching_minus_one_rejected(self):
        bad = WeightedTree((-1, -2, -2, -2), ((0, 1), (0, 2), (0, 3)))
        with pytest.raises(NotAFiber):
            classify_fiber(bad)

    @given(chains(max_size=6), st.integers(-1, 1), st.integers(0, 2**16),
           st.randoms(use_true_random=False))
    def test_relabelled_chain_fibers_match_oracle(self, u, delta, pos, rnd):
        # [U,1,U*], one entry moved by delta, vertices renumbered at random
        entries = list(u.entries + (1,) + adjoint_fold_oracle(u).entries)
        entries[pos % len(entries)] += delta
        perm = list(range(len(entries)))
        rnd.shuffle(perm)
        weights = [0] * len(entries)
        for i, e in enumerate(entries):
            weights[perm[i]] = -e
        tree = WeightedTree(tuple(weights),
                            tuple((perm[i], perm[i + 1]) for i in range(len(perm) - 1)))
        got = outcome(classify_fiber, tree)
        assert got == outcome(chain_fiber_oracle, tree)
        if delta == 0:
            mu = fiber_multiplicities(Chain(tuple(entries)).to_tree())
            assert got.shape == CHAIN
            assert got.multiplicities == tuple(mu[perm.index(v)] for v in range(len(perm)))

    def test_chain_fiber_needs_adjoint_sides(self):
        # [2,2,1,3] splits at the -1 into [2,2] and [3] = adjoint([2,2])
        rep = classify_fiber(ch(2, 2, 1, 3).to_tree())
        assert rep.shape == CHAIN
        assert classify_fiber(ch(3, 1, 2, 2).to_tree()).shape == CHAIN


class TestResolution:
    def test_bicuspidal_head_graph(self):
        res = resolution_graph(standardize(parse_hn("6/4,2/3")))
        assert res.tree.weights == (-3, -2, -2, -3, -2, -1)
        assert res.tree.edges == ((0, 2), (1, 2), (2, 3), (3, 5), (4, 5))
        assert res.c_vertex == 5
        assert res.mult.entries() == (4, 2, 2, 2, 1, 1)
        adj = res.tree.adjacency()
        assert [v for v, nb in adj.items() if len(nb) >= 3] == [2]

    def test_raw_pair_list_same_graph(self):
        a = resolution_graph(standardize(parse_hn("6/4,2/3")))
        tree, mult, last = simulate_resolution(
            tuple(HNPair(c, p) for c, p in ((6, 4), (2, 2), (2, 1))))
        assert tree.weights == a.tree.weights
        assert tree.edges == a.tree.edges
        assert mult == a.mult

    @pytest.mark.parametrize("hn,chain", [
        ("13/4", (2, 2, 2, 1, 5, 2, 2)),
        ("13/3", (2, 2, 1, 4, 2, 2, 2)),
        ("5/2", (2, 3, 1, 2)),
        ("3/2", (2, 1, 3)),
        ("7/3", (2, 4, 1, 2, 2)),
        ("7/2", (2, 2, 3, 1, 2)),
    ])
    def test_single_pair_chains(self, hn, chain):
        res = resolution_graph(standardize(parse_hn(hn)))
        assert res.chain() == Chain(chain)

    def test_chain_refused_on_branching(self):
        res = resolution_graph(standardize(parse_hn("6/4,2/3")))
        with pytest.raises(ValueError, match="not a chain"):
            res.chain()

    def test_chain_contracts_with_curve(self):
        # Q with the -1 replaced through the curve leaves a smooth blowdown
        res = resolution_graph(standardize(parse_hn("13/4")))
        assert contracts_to_smooth_point(res.tree)

    @given(standard_hn_sequences(max_h=3, cap=400))
    def test_invariants(self, s):
        res = resolution_graph(s)
        t = res.tree
        assert discriminant(t) == 1
        assert is_negative_definite(t)
        adj = t.adjacency()
        minus_ones = [v for v, w in zip(range(len(t)), t.weights) if w == -1]
        assert minus_ones == [res.c_vertex]
        assert len(adj[res.c_vertex]) >= 2
        assert sum(1 for nb in adj.values() if len(nb) >= 3) == s.h - 1
        assert max(len(nb) for nb in adj.values()) <= 3
        assert res.mult == hn_to_multiplicity(s, FULL)

    @settings(max_examples=60)
    @given(standard_hn_sequences(max_h=3, cap=40), st.lists(st.integers(1, 5), min_size=3, max_size=3))
    def test_blowups_of_the_germ(self, s, coeffs):
        # a route that shares no convention with the HN pairs: the branch
        # x = t^beta0, y = sum a_i t^beta_i resolved by actual blowups
        char = hn_to_puiseux_char(s)
        tree, mult = germ_resolution_oracle(char, coeffs[:char.g])
        assert tree == resolution_graph(s).tree
        assert mult == hn_to_multiplicity(s, FULL)
        ms = mult.entries()
        assert sum(m * (m - 1) // 2 for m in ms) == semigroup_of(char).gap_count
        assert (sum(ms), sum(m * m for m in ms)) == compute_M_I(s)


class TestRunForm:
    """The run-length resolution against the one-blowup-a-step oracle."""

    @settings(max_examples=60)
    @given(resolution_corpus_hn())
    def test_tree_matches_simulation(self, s):
        res = resolution_graph(s)
        tree, mult, last = simulate_resolution(s.pairs)
        assert res.tree.weights == tree.weights
        assert res.tree.edges == tree.edges
        assert res.c_vertex == last
        assert res.mult == mult

    @settings(max_examples=60)
    @given(resolution_corpus_hn())
    def test_invariants_match_tree_pass(self, s):
        res = resolution_graph(s)
        tree, _, last = simulate_resolution(s.pairs)
        assert tuple(res.invariants()) == resolution_invariants_oracle(tree, last)
        assert tuple(res.invariants()) == (1, 2, s.h - 1, 1, True)

    @settings(max_examples=150)
    @given(standard_hn_sequences(max_h=4, cap=300), st.data())
    def test_invariants_exact_on_altered_weights(self, s, data):
        # any end weights, definite or not: the run-form values must agree
        # with the vertex-by-vertex pass on the expanded tree
        res = resolution_graph(s)
        runs = tuple(
            run._replace(end=run.end + data.draw(st.integers(-3, 2)))
            for run in res.runs)
        altered = replaced(res, runs=runs)
        assert (tuple(altered.invariants())
                == resolution_invariants_oracle(altered.tree, res.c_vertex))

    @settings(max_examples=60)
    @given(resolution_corpus_hn(), st.data())
    def test_expanded_tree_determinants(self, s, data):
        # the run-form values the expanded tree carries, against a fresh
        # rebuild's own pass and a pickle round trip, with any end weights
        res = resolution_graph(s)
        if data.draw(st.booleans()):
            res = replaced(res, runs=tuple(
                run._replace(end=run.end + data.draw(st.integers(-3, 2)))
                for run in res.runs))
        tree, inv = res.tree, res.invariants()
        seeded = (discriminant(tree), is_negative_definite(tree))
        assert seeded == (inv.discriminant, inv.definite)
        fresh = WeightedTree(tree.weights, tree.edges)
        assert (discriminant(fresh), is_negative_definite(fresh)) == seeded
        back = pickle.loads(pickle.dumps(tree))
        assert (discriminant(back), is_negative_definite(back)) == seeded
        assert (back.weights, back.edges) == (tree.weights, tree.edges)
        # the tree's own junction form is still vertex by vertex
        expanded = expand_junctions(*tree._junction_form())
        assert (expanded.weights, expanded.edges) == (tree.weights, tree.edges)

    def test_expanded_tree_makes_no_vertex_pass(self, monkeypatch):
        sizes = []
        real = divisor._subtree_determinants
        monkeypatch.setattr(divisor, "_subtree_determinants",
                            lambda weight, *rest: sizes.append(len(weight)) or real(weight, *rest))
        res = resolution_graph(parse_hn("1000001/2"))
        tree = res.tree
        assert (discriminant(tree), is_negative_definite(tree)) == (1, True)
        assert len(tree) == 500_002
        assert sizes and max(sizes) <= 2 * len(res.runs)

    @given(standard_hn_sequences(max_h=1, cap=3000))
    def test_chain_matches_path_reading(self, s):
        res = resolution_graph(s)
        tree, _, last = simulate_resolution(s.pairs)
        assert res.chain().entries == chain_oracle(tree, last)

    def test_nonpositive_value_inside_a_run(self):
        # every run end keeps a positive subtree value here; only a value
        # inside the run of eight vertices 1..8 is not positive
        res = resolution_graph(parse_hn("54/48,6/11", STANDARD))
        ends = (-11, -5, -1, -6, 0)
        altered = replaced(res, runs=tuple(
            run._replace(end=e) for run, e in zip(res.runs, ends)))
        assert altered.invariants() == (1, 2, 1, 67, False)
        assert not is_negative_definite(altered.tree)
        # and by the vertex-by-vertex pass of a tree that carries no run-form values
        fresh = WeightedTree(altered.tree.weights, altered.tree.edges)
        assert "_dets" not in fresh.__dict__
        assert not is_negative_definite(fresh)

    @settings(max_examples=60)
    @given(resolution_corpus_hn())
    def test_edge_walk_is_sorted_tree_order(self, s):
        res = resolution_graph(s)
        tree, _, _ = simulate_resolution(s.pairs)
        walk = [(a + i, b + i) for a, b, n in _edge_walk(res.runs, res.links) for i in range(n)]
        assert walk == list(tree.edges)
        assert len(res) == len(tree)
        assert "tree" not in res.__dict__

    def test_length_past_an_index(self):
        res = resolution_graph(parse_hn("6/4,2/99999999999999999999999"))
        assert res.c_vertex > sys.maxsize
        with pytest.raises(OverflowError):
            len(res)
        with pytest.raises(OverflowError):
            next(divisor._dot_pieces(res))

    def test_tree_expanded_only_on_demand(self):
        res = resolution_graph(standardize(parse_hn("6/4,2/3")))
        assert "tree" not in res.__dict__
        tree = res.tree
        assert res.tree is tree
        assert tree == WeightedTree(tree.weights, tree.edges)

    def test_huge_quotient_without_tree(self):
        c = 10**18 + 1
        t0 = time.process_time()
        res = resolution_graph(parse_hn(f"{c}/2"))
        inv = res.invariants()
        assert time.process_time() - t0 < 0.5
        # one run of (c-1)/2 blowups at multiplicity 2, then two at 1
        assert res.c_vertex == (c - 1) // 2 + 1
        assert res.mult.runs == ((2, (c - 1) // 2), (1, 2))
        assert inv == (1, 2, 0, 1, True)
        assert "tree" not in res.__dict__


class TestRunBackedTree:
    """A resolution's tree, held as runs, against the eager tree of its vertices."""

    @staticmethod
    def check_against_eager(s):
        res = resolution_graph(s)
        tree = res.tree
        assert res.tree is tree
        assert type(tree) is WeightedTree
        # the eager tree is built from a second resolution, so `tree` is still unexpanded
        other = resolution_graph(s).tree
        eager = WeightedTree(other.weights, other.edges)
        assert len(tree) == len(eager) == res.c_vertex + 1
        assert discriminant(tree) == discriminant(eager)
        assert is_negative_definite(tree) == is_negative_definite(eager)
        assert dot_export(tree) == dot_export(eager)
        assert expanded(tree) == ()
        before = pickle.loads(pickle.dumps(tree))
        assert expanded(before) == ()
        assert tree == eager and hash(tree) == hash(eager)
        assert (tree.weights, tree.edges) == (eager.weights, eager.edges)
        assert tree.adjacency() == eager.adjacency()
        assert repr(tree) == repr(eager)
        assert contracts_to_smooth_point(tree) == contracts_to_smooth_point(eager)
        after = pickle.loads(pickle.dumps(tree))
        assert expanded(after) == ("weights", "edges")
        for back in (before, after):
            assert type(back) is WeightedTree
            assert back == eager and hash(back) == hash(eager)
            assert (back.weights, back.edges) == (eager.weights, eager.edges)
            assert (discriminant(back), is_negative_definite(back)) == (
                discriminant(eager), is_negative_definite(eager))

    @settings(max_examples=60)
    @given(resolution_corpus_hn(cap=3000))
    def test_matches_eager_tree_on_corpus(self, s):
        self.check_against_eager(s)

    def test_matches_eager_tree_on_random_cusps(self, rng):
        for _ in range(40):
            self.check_against_eager(random_standard_hn(rng, max_h=4, cap=3000))

    @pytest.mark.parametrize("first", ["weights", "edges"])
    def test_fields_expand_one_at_a_time(self, first):
        tree = resolution_graph(parse_hn("6/4,2/3")).tree
        getattr(tree, first)
        assert expanded(tree) == (first,)

    def test_holds_runs_not_the_resolution(self):
        res = resolution_graph(parse_hn("987/144,3/1"))
        tree = res.tree
        assert not any(isinstance(value, MarkedResolution) for value in tree.__dict__.values())
        # no reference cycle: the resolution goes as soon as its last name does
        gone = weakref.ref(res)
        del res
        assert gone() is None
        assert len(tree) == len(tree.weights)

    def test_plain_tree_sets_both_fields(self):
        assert expanded(WeightedTree((-1, -2), ((0, 1),))) == ("weights", "edges")
        assert expanded(ch(2, 3).to_tree()) == ("weights", "edges")

    @pytest.mark.parametrize("text", ["1000000000001/2", "12/8,4/6,2/1000000000001"])
    def test_determinants_cost_no_vertex_memory(self, text):
        # a bounded peak shows that no vertex list was made
        seq = parse_hn(text)
        got = []

        def read():
            res = resolution_graph(seq)
            tree = res.tree
            got.append((res.c_vertex, tree, len(tree), discriminant(tree),
                        is_negative_definite(tree)))

        assert traced_peak(read) < 64 * 1024
        c_vertex, tree, size, *dets = got[0]
        assert size == c_vertex + 1 > 10**11
        assert dets == [1, True]
        assert expanded(tree) == ()

    def test_length_past_an_index(self):
        tree = resolution_graph(parse_hn("6/4,2/99999999999999999999999")).tree
        with pytest.raises(OverflowError):
            len(tree)
        with pytest.raises(OverflowError):
            next(divisor._dot_pieces(tree))
        assert (discriminant(tree), is_negative_definite(tree)) == (1, True)
        assert expanded(tree) == ()


class TestChainIdentities:
    def test_thirteen_four(self):
        rep = hn_chain_identities(13, 4)
        assert rep.a_side == (5, 2, 2)
        assert rep.b_side == (2, 2, 2)
        assert (rep.d_a, rep.d_b, rep.d_a_trunc, rep.d_b_trunc) == (13, 4, 9, 3)
        assert rep.ok

    def test_p_one(self):
        rep = hn_chain_identities(5, 1)
        assert rep.b_side == ()
        assert (rep.d_a, rep.d_b, rep.d_a_trunc, rep.d_b_trunc) == (5, 1, 4, 1)
        assert rep.ok

    def test_errors(self):
        with pytest.raises(ValueError, match="c > p"):
            hn_chain_identities(4, 6)
        with pytest.raises(NotCoprime):
            hn_chain_identities(6, 4)

    def test_long_single_pair(self):
        # a side holds 500,000 entries; no step may convert them one by one
        t0 = time.process_time()
        rep = hn_chain_identities(10**6 + 1, 2)
        assert time.process_time() - t0 < 0.1
        assert rep.ok
        assert rep.a_side == (3,) + (2,) * 499999
        assert rep.b_side == (2,)
        assert (rep.d_a, rep.d_b, rep.d_a_trunc, rep.d_b_trunc) == (10**6 + 1, 2, 10**6 - 1, 1)
        assert rep.q_chain == Chain((2, 1) + rep.a_side)

    def test_random_coprime(self, rng):
        from math import gcd
        done = 0
        while done < 100:
            c = rng.randint(2, 3000)
            p = rng.randint(1, c - 1)
            if gcd(c, p) != 1:
                continue
            assert hn_chain_identities(c, p).ok
            done += 1


class TestDot:
    def test_chain_bytes(self):
        assert dot_export(ch(2, 3)) == (
            'graph Q {\n'
            '  node [shape=circle];\n'
            '  v0 [label="-2"];\n'
            '  v1 [label="-3"];\n'
            '  v0 -- v1;\n'
            '}\n'
        )

    def test_resolution_bytes(self):
        res = resolution_graph(standardize(parse_hn("13/4")))
        assert dot_export(res) == (
            'graph Q {\n'
            '  node [shape=circle];\n'
            '  v0 [label="-2"];\n'
            '  v1 [label="-2"];\n'
            '  v2 [label="-5"];\n'
            '  v3 [label="-2"];\n'
            '  v4 [label="-2"];\n'
            '  v5 [label="-2"];\n'
            '  v6 [label="-1", shape=doublecircle];\n'
            '  E [shape=box];\n'
            '  v0 -- v1;\n'
            '  v1 -- v2;\n'
            '  v2 -- v6;\n'
            '  v3 -- v4;\n'
            '  v4 -- v5;\n'
            '  v5 -- v6;\n'
            '  v6 -- E [style=dashed];\n'
            '}\n'
        )

    def test_tree_without_marking_has_no_box(self):
        out = dot_export(ch(2, 3).to_tree())
        assert "E [shape=box]" not in out
        assert "doublecircle" not in out

    def test_resolution_tree_bytes_unchanged(self):
        # the digest of this corpus's DOT text when every tree was written
        # vertex by vertex, before trees of resolutions were written from runs
        digest = hashlib.md5()
        for seed in range(40):
            rng = random.Random(seed)
            s = stress_standard_hn(rng) if seed % 2 else random_standard_hn(rng, max_h=4)
            digest.update(dot_export(resolution_graph(s).tree).encode())
        assert digest.hexdigest() == "264ab501a3ad331ba07680afdcee83b3"

    def test_streamed_pieces_hold_no_vertex_list(self):
        tree = resolution_graph(parse_hn("120001/2")).tree
        eager = WeightedTree._trusted(tree.weights, tree.edges)
        fresh = resolution_graph(parse_hn("120001/2")).tree
        for t in (fresh, eager):
            # 60,002 vertices: a Run or a line per vertex would take megabytes
            assert traced_peak(lambda: sum(map(len, divisor._dot_pieces(t)))) < 1 << 20
        assert expanded(fresh) == ()
        assert dot_export(fresh) == dot_export(eager) == dot_export(tree)
