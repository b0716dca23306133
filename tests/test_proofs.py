"""Facts that let the library skip a runtime check, one property test each.

Each fact is why a branch no input can reach was deleted from `src/`:
a conversion whose result is standard by construction, a division that
is exact, a guard that is always true, a list that is never empty, a
chain fiber that reads [U,1,U*] because its kernel vector is positive,
or a rewrite loop whose first pass is already its fixpoint.  The proof
sits in the test's docstring; the test checks the fact on the existing
hypothesis strategies, against the deleted route kept in
`tests/support.py` as an oracle where there is one, and fails when the
code that produces the fact breaks.  `tests/reachability.py` keeps such
branches from coming back.
"""

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspforge import invariants
from cuspforge.divisor import (
    CHAIN,
    Chain,
    FiberReport,
    WeightedTree,
    _edge_texts,
    _edge_walk,
    _vertex_walk,
    classify_fiber,
    fiber_multiplicities,
    resolution_graph,
)
from cuspforge.errors import DegenerateRemainder, NotAFiber, NotRealizable, NotReducible
from cuspforge.hn import RAW, STANDARD, HNPair, HNSequence, expand_low_p, standardize, validate
from cuspforge.invariants import (
    FULL,
    MultiplicitySequence,
    _I,
    _J,
    _run_texts,
    cusp_record,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    hn_from_zariski,
    multiplicity_to_standard_hn,
    puiseux_char_to_standard_hn,
    zariski_from_hn,
)
from support import (
    adjoint_fold_oracle,
    chain_fiber_oracle,
    continuant_oracle,
    puiseux_characteristics,
    raw_hn_sequences,
    resolution_corpus_hn,
    standard_hn_sequences,
    standardize_fixpoint_oracle,
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


@st.composite
def full_multiplicities(draw) -> MultiplicitySequence:
    """Full sequences with values in 2..13 and counts in 1..6; most come from no cusp."""
    values = sorted(draw(st.sets(st.integers(2, 13), min_size=1, max_size=4)), reverse=True)
    runs = [(v, draw(st.integers(1, 6))) for v in values]
    return MultiplicitySequence(runs + [(1, draw(st.integers(1, 13)))], FULL)


@given(standard_hn_sequences(), full_multiplicities())
def test_a_candidate_that_passes_the_gcd_chain_is_standard(seq, mult):
    """`multiplicity_to_standard_hn` need not validate its candidate.

    The runs have values mu_1 > mu_2 > ... >= 1.  The first pair is
    c1 = u1 mu1 + mu2 over p1 = mu1 with 0 < mu2 < mu1, so p1 < c1 and p1
    does not divide c1.  Each later c is the running gcd, so the gcd chain
    holds, and the loop ends only at gcd 1, so the last pair is coprime.
    The loop refuses a gcd whose run index does not grow, so each
    c_{j+1} = gcd(c_j, p_j) is smaller than c_j: that is strict decrease,
    and it rules out c_j = p_j, whose gcd is c_j again.  The p > 0 check
    keeps every pair positive.  The round trip is left to refuse a
    standard candidate that does not reproduce the input.
    """
    assert multiplicity_to_standard_hn(hn_to_multiplicity(seq, FULL)) == seq
    with mock.patch.object(invariants, "hn_to_multiplicity", wraps=hn_to_multiplicity) as spy:
        try:
            multiplicity_to_standard_hn(mult)
        except NotRealizable:
            pass
    for call in spy.call_args_list:
        assert validate(HNSequence(call.args[0].pairs, STANDARD)).ok


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
    assert vars(tree)["_dets"] == eager._dets


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


@st.composite
def zero_discriminant_chains(draw) -> tuple[int, ...]:
    """Chains of entries in -1..5 whose last entry is solved for d = 0; most are no fiber."""
    head = tuple(draw(st.lists(st.integers(-1, 5), min_size=1, max_size=6)))
    d_prev, d_head = continuant_oracle(head[:-1]), continuant_oracle(head)
    assume(d_head != 0 and d_prev % d_head == 0)
    return (*head, d_prev // d_head)


@st.composite
def near_fiber_chains(draw) -> tuple[int, ...]:
    """[U,1,U*] with one entry moved by -2..2."""
    u = draw(st.lists(st.integers(2, 6), min_size=1, max_size=5))
    entries = [*u, 1, *adjoint_fold_oracle(Chain(tuple(u))).entries]
    entries[draw(st.integers(0, len(entries) - 1))] += draw(st.integers(-2, 2))
    return tuple(entries)


@given(zero_discriminant_chains() | near_fiber_chains())
def test_a_chain_fiber_with_one_minus_one_curve_reads_u_1_u_star(entries):
    """`classify_fiber` need not re-read a chain fiber with one (-1)-curve.

    `_fiber_pass` accepts only a positive kernel vector m.  On the chain
    [a_1, ..., a_r], r >= 2, that gives a_i m_i = m_{i-1} + m_{i+1} > 0
    (with m_0 = m_{r+1} = 0), so every entry is at least 1 and every entry
    but the lone 1 is at least 2.  The 1 is no tip (the test above), so the
    chain is [U,1,V] with U and V non-empty.  Let U' be U without its entry
    next to the 1, and V' likewise.  Expanding d along the 1 gives
    0 = d(U)d(V) - d(U')d(V) - d(U)d(V'), so d(V')/d(V) = 1 - d(U')/d(U).
    With entries >= 2 both fractions lie strictly between 0 and 1 in lowest
    terms, so d(V) = d(U) and d(V') = d(U) - d(U').  A Hirzebruch-Jung
    expansion with entries >= 2 is unique, so V is U*: the whole-path
    reading of `chain_fiber_oracle` always agrees.
    """
    tree = Chain(entries).to_tree()
    try:
        mu = fiber_multiplicities(tree)
    except NotAFiber:
        with pytest.raises(NotAFiber):
            classify_fiber(tree)
        return
    minus_ones = tuple(v for v, a in enumerate(entries) if a == 1)
    report = classify_fiber(tree)
    assert report == FiberReport(CHAIN, mu, minus_ones)
    if len(minus_ones) == 1:
        before, after = entries[:minus_ones[0]], entries[minus_ones[0] + 1:]
        assert before and after and min(before + after) >= 2
        assert adjoint_fold_oracle(Chain(before)).entries == after
        assert chain_fiber_oracle(tree) == report


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
    weights = _pieces_and_items(_run_texts(
        ((w, n) for _, n, w in _vertex_walk(res.runs)), "{}", ","), ",")
    edges = _pieces_and_items(_edge_texts(_edge_walk(res.runs, res.links), _I + "-" + _J, ","), ",")
    assert len(weights) == len(res) and len(edges) == len(res) - 1 >= 2
    assert _pieces_and_items(_run_texts(res.mult.runs, "{}", ","), ",")


def _outcome(f, seq):
    try:
        return f(seq)
    except (ValueError, NotReducible) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def unstandardized_sequences(draw) -> HNSequence:
    """A standard sequence with R2 and then R1 undone at random, so both rules redo it.

    Undoing R2 splits the head (c/p) into (c-y/p)(p/y), with y = c mod p
    plus some multiples of p and c - y >= p; undoing it twice needs R2 twice
    unless R1 absorbs the second split.  Undoing R1 splits an interior (x/z)
    with z > x into (x/x)(x/z-x).  Both keep the gcd chain.
    """
    pairs = list(draw(standard_hn_sequences()).pairs)
    for _ in range(draw(st.integers(0, 3))):
        c, p = pairs[0].c, pairs[0].p
        low, high = (0 if c % p else 1), (c - p) // p
        if low <= high:
            y = c % p + p * draw(st.integers(low, high))
            pairs[0:1] = [HNPair(c - y, p), HNPair(p, y)]
    for _ in range(draw(st.integers(0, 3))):
        interior = [j for j in range(1, len(pairs)) if pairs[j].p > pairs[j].c]
        if interior:
            j = draw(st.sampled_from(interior))
            x, z = pairs[j].c, pairs[j].p
            pairs[j:j + 1] = [HNPair(x, x), HNPair(x, z - x)]
    return HNSequence(tuple(pairs), RAW)


@given(raw_hn_sequences() | unstandardized_sequences(), st.booleans())
@example(HNSequence((HNPair(2, 2), HNPair(2, 4), HNPair(2, 1)), RAW), False)  # 7/2, R2 undone twice
def test_one_r1_sweep_then_r2_is_the_fixpoint(seq, expand):
    """`standardize` needs no outer loop.

    A right-to-left R1 sweep leaves no (x/x)(x/y) at positions j >= 1: a
    merge at j gives (x/x+y), which is never (x/x) since y > 0, so it
    starts no new match, and its left neighbour is examined next.  R2
    rewrites only the head pair and its neighbour, and R1 never applies at
    j = 0, so R2 makes no R1 match: the pairs after the head stay a tail of
    the swept list.  So R2 applied while it matches reaches the fixpoint of
    the old loop, which alternated whole sweeps with single R2 steps
    (`standardize_fixpoint_oracle`).  The draws include `expand_low_p`
    outputs, whose (c/c) blocks feed R1, and standard sequences with the
    rules undone, which need R2 more than once.
    """
    if expand:
        try:
            seq = expand_low_p(seq)
        except DegenerateRemainder:
            return
    assert _outcome(standardize, seq) == _outcome(standardize_fixpoint_oracle, seq)
