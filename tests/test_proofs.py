"""Facts that let the library skip a runtime check, one property test each.

Each fact is why a branch no input can reach was deleted from `src/`:
a conversion whose result is standard by construction, a division that
is exact, a guard that is always true, or a list that is never empty.
The proof sits in the test's docstring; the test checks the fact on the
existing hypothesis strategies, and fails when the code that produces
the fact breaks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.cli import _weight_runs
from cuspforge.divisor import (
    Chain,
    WeightedTree,
    _edge_texts,
    classify_fiber,
    fiber_multiplicities,
    resolution_graph,
)
from cuspforge.errors import NotAFiber
from cuspforge.hn import STANDARD, HNPair, HNSequence, validate
from cuspforge.invariants import (
    FULL,
    MultiplicitySequence,
    _run_texts,
    cusp_record,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    hn_from_zariski,
    puiseux_char_to_standard_hn,
    zariski_from_hn,
)
from support import (
    puiseux_characteristics,
    resolution_corpus_hn,
    standard_hn_sequences,
    zariski_pair_lists,
)


@given(puiseux_characteristics())
def test_characteristic_gives_a_standard_sequence(char):
    """`puiseux_char_to_standard_hn` needs no validation.

    A valid characteristic has beta strictly increasing, e_{i-1} not
    dividing beta_i and e_g = 1.  So p1 = beta0 < c1 = beta1 and beta0 does
    not divide beta1; then c_{j+1} = gcd(c_j, p_j) = e_j, which strictly
    decreases to 1, and c_j = e_{j-1} does not divide p_j = beta_j -
    beta_{j-1}, so c_j != p_j.
    """
    seq = puiseux_char_to_standard_hn(char)
    assert seq.flavor == STANDARD
    assert validate(HNSequence(seq.pairs, STANDARD)).ok
    assert hn_to_puiseux_char(seq) == char


@given(zariski_pair_lists())
def test_zariski_pairs_give_a_standard_sequence(pairs):
    """`hn_from_zariski` needs no validation.

    Let b_i >= 2, a_i >= 1, gcd(a_i, b_i) = 1, a_1 > b_1 and S_k =
    b_{k+1}...b_h.  The pairs (a_1 S_1 / b_1 S_1), (S_{k-1} / a_k S_k) have
    gcd(c_k, p_k) = S_k = c_{k+1} and end coprime; c_1 > p_1 and b_1 does
    not divide a_1; S_{k-1} = b_k S_k > S_k and a_1 S_1 > S_1; and
    S_{k-1} != a_k S_k since a_k != b_k.
    """
    seq = hn_from_zariski(pairs)
    assert seq.flavor == STANDARD
    assert validate(HNSequence(seq.pairs, STANDARD)).ok
    assert zariski_from_hn(seq) == pairs


@st.composite
def decreasing_c_sequences(draw) -> HNSequence:
    """Standard-declared sequences with a strictly decreasing c column; most break an axiom."""
    cs = sorted(draw(st.sets(st.integers(2, 12), min_size=1, max_size=3)), reverse=True)
    return HNSequence(tuple(HNPair(c, draw(st.integers(1, 24))) for c in cs), STANDARD)


@given(standard_hn_sequences() | decreasing_c_sequences())
def test_zariski_divisions_are_exact(seq):
    """`zariski_from_hn` needs no divisibility check.

    It runs `require_valid` first, so c_{k+1} = gcd(c_k, p_k) (and
    c_{h+1} = 1) divides both entries of stage k.
    """
    if not validate(seq).ok:
        with pytest.raises(ValueError, match="invalid standard HN sequence"):
            zariski_from_hn(seq)
        return
    pairs = seq.pairs
    stages = [(pairs[0].p, pairs[0].c)] + [(q.c, q.p) for q in pairs[1:]]
    cuts = [q.c for q in pairs[1:]] + [1]
    for (b, a), d in zip(stages, cuts):
        assert b % d == 0 and a % d == 0
    got = zariski_from_hn(seq)
    assert tuple((b * d, a * d) for (b, a), d in zip(got.pairs, cuts)) == tuple(stages)


runs_lists = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=4)


@given(runs_lists, standard_hn_sequences())
def test_full_sequences_end_in_a_one_run(runs, seq):
    """`MultiplicitySequence.reduced` drops the last run of a full sequence unguarded.

    The constructor refuses a full sequence that is empty or does not end
    in 1, and the library's own full sequences (`full()`,
    `hn_to_multiplicity`) end in 1 by construction.
    """
    try:
        full = MultiplicitySequence.from_runs(runs, FULL)
    except ValueError:
        full = None
    if full is not None:
        assert full.runs and full.runs[-1][0] == 1
        assert full.reduced().entries() == tuple(e for e in full.entries() if e > 1)
    full = hn_to_multiplicity(seq, FULL)
    assert full.runs[-1][0] == 1
    assert full.reduced() == hn_to_multiplicity(seq)
    assert full.reduced().full() == full


@settings(max_examples=40)
@given(resolution_corpus_hn(cap=2_000))
def test_only_a_resolution_tree_arrives_with_its_determinants(seq):
    """`WeightedTree._trusted` takes no determinants.

    The one tree built with its (discriminant, definite) pair is a
    resolution's run-backed tree, which reads the pair off the run form in
    `MarkedResolution.tree` and passes it to `_from_runs`; every other tree
    computes its own on first use.  The pair must be the expanded tree's.
    """
    tree = resolution_graph(seq).tree
    eager = WeightedTree(tree.weights, tree.edges)
    assert vars(tree)["_dets"] == eager._determinants()


# chains whose vertex 0 is the only (-1)-curve: entries other than 1, any sign
other_entries = st.lists(st.integers(-3, 8).filter(lambda x: x != 1), min_size=1, max_size=8)


@given(other_entries, st.booleans())
def test_no_fiber_chain_has_its_lone_minus_one_curve_at_a_tip(rest, flip):
    """`classify_fiber` need not refuse a chain whose unique (-1)-curve is a tip.

    A positive kernel vector m gives w_v m_v = -(sum of m over v's
    neighbours) < 0 at every vertex with a neighbour, so the other weights
    are <= -2.  At the (-1)-tip m_1 = m_0, and at each later vertex
    m_{i+1} = -w_i m_i - m_{i-1} >= 2 m_i - m_{i-1}, so m never decreases.
    The far tip needs m_{r-1} = -w_r m_r >= 2 m_r > m_r, which contradicts
    that: `_fiber_pass` refuses every such chain first.
    """
    entries = (1, *rest)
    tree = Chain(entries[::-1] if flip else entries).to_tree()
    with pytest.raises(NotAFiber, match="kernel"):
        fiber_multiplicities(tree)
    with pytest.raises(NotAFiber, match="kernel"):
        classify_fiber(tree)


def _pieces_and_items(pieces, sep):
    pieces = list(pieces)
    assert pieces and all(pieces)
    return sep.join(pieces).split(sep)


@given(standard_hn_sequences())
def test_every_listed_field_of_a_cusp_is_non_empty(seq):
    """`cli._json_list` never writes an empty array for a cusp.

    A standard cusp has p1 >= 2, so its reduced multiplicities start with
    p1 and 1 is a gap; its conductor is at least 2, so the Alexander
    polynomial has at least three coefficients.
    """
    record = cusp_record(seq)
    fields = record._json_fields(",")
    mult = _pieces_and_items(fields["mult_reduced"], ",")
    assert mult[0] == str(seq.pairs[0].p)
    assert _pieces_and_items(fields["gaps"], ",")[0] == "1"
    assert len(_pieces_and_items(fields["alexander_coeffs"], ",")) >= 3


@settings(max_examples=40)
@given(resolution_corpus_hn(cap=2_000))
def test_every_listed_field_of_a_resolution_is_non_empty(seq):
    """A resolution has at least three vertices and two edges.

    A standard cusp has p1 >= 2 and p1 does not divide c1, so the
    Euclidean algorithm on (c1, p1) takes at least two steps, the last
    with quotient at least 2: at least three blowups.
    """
    res = resolution_graph(seq)
    assert len(res) >= 3
    weights = _pieces_and_items(_run_texts(_weight_runs(res), "{}", ","), ",")
    edges = _pieces_and_items(_edge_texts(res._edge_walk(), "-", ","), ",")
    assert len(weights) == len(res) and len(edges) == len(res) - 1 >= 2
    assert _pieces_and_items(_run_texts(res.mult.runs, "{}", ","), ",")
