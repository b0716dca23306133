"""Reference computations and output checks, made apart from cuspforge.

Nothing here imports cuspforge: every expected value is derived from the
Hamburger-Noether pairs, family formulas and closed forms directly, so a
check can only pass when the program and this module agree.  Each check
returns a list of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import random
import re
from math import gcd


# ------------------------------------------------------------ cusp arithmetic


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """'c1/p1,c2/p2' -> [(c1, p1), (c2, p2)]."""
    out = []
    for token in text.split(","):
        c, _, p = token.partition("/")
        out.append((int(c), int(p)))
    return out


def format_pairs(pairs) -> str:
    return ",".join(f"{c}/{p}" for c, p in pairs)


def multiplicity_runs(pairs) -> list[tuple[int, int]]:
    """Full multiplicity sequence as (value, count) runs, trailing 1s included.

    Each pair contributes the quotient runs of the Euclidean algorithm on
    (max, min) of its entries.
    """
    runs: list[tuple[int, int]] = []
    for c, p in pairs:
        a, b = max(c, p), min(c, p)
        while b:
            q, r = divmod(a, b)
            if runs and runs[-1][0] == b:
                runs[-1] = (b, runs[-1][1] + q)
            else:
                runs.append((b, q))
            a, b = b, r
    return runs


def reduced_entries(runs) -> list[int]:
    out: list[int] = []
    for v, n in runs:
        if v > 1:
            out.extend([v] * n)
    return out


def m_and_i(runs) -> tuple[int, int]:
    """M = sum of m and I = sum of m^2 over the full multiplicity sequence."""
    return sum(v * n for v, n in runs), sum(v * v * n for v, n in runs)


def puiseux_char(pairs) -> list[int]:
    """beta0 = p1, beta1 = c1, beta_i = beta_{i-1} + p_i (standard form)."""
    beta = [pairs[0][1], pairs[0][0]]
    for _, p in pairs[1:]:
        beta.append(beta[-1] + p)
    return beta


def random_standard_pairs(rng: random.Random, h: int, target: int, band: float = 0.12):
    """A random standard HN sequence of h pairs with conductor in [target, (1+band)*target].

    Built from Zariski pairs (b_k, a_k): with S_k = b_k * ... * b_h, the
    standard pairs are (a_1 S_2 / b_1 S_2) followed by (S_k / a_k S_{k+1}).
    The free choices are random; a_1 is then raised until the conductor
    reaches the target.  Returns None when this draw cannot hit the band.
    """
    bs = [rng.randint(2, 5) for _ in range(h - 1)]
    as_ = [rng.choice([a for a in range(1, 9) if gcd(a, b) == 1]) for b in bs]
    suffix = [1]
    for b in reversed(bs):
        suffix.append(suffix[-1] * b)
    suffix.reverse()                      # suffix[k] = b_{k+2} * ... (0-based)
    s1 = suffix[0]
    tail = [(suffix[k], as_[k] * suffix[k + 1]) for k in range(h - 1)]
    b1 = rng.randint(2, max(2, min(40, int((target / (s1 * s1)) ** 0.5))))
    a1 = b1 + 1
    while True:
        if gcd(a1, b1) == 1:
            pairs = [(a1 * s1, b1 * s1)] + tail
            m, i = m_and_i(multiplicity_runs(pairs))
            conductor = i - m
            if conductor >= target:
                return pairs if conductor <= (1 + band) * target else None
        a1 += 1


def invariants_corpus(seed: int, size: int, low: int, high: int, top: float) -> list[str]:
    """Seeded cusps whose conductors follow a fixed grid.

    The first (1 - top) share of the corpus has conductors log-spaced from
    low to high; the last ``top`` share all sit at high, so the 95th
    percentile falls among many cusps of one size rather than on one
    cusp.  The grid and the number of pairs at each point do not depend on
    the seed; only which cusp fills each point does, with its conductor
    at most 2% above the point.  The cost of an invariants call grows with
    the conductor, so every seed gets nearly the same cost profile while
    the inputs themselves differ.
    """
    rng = random.Random(seed)
    ramp = (1 - top) * (size - 1)
    out = []
    for j in range(size):
        target = round(low * (high / low) ** min(1.0, j / ramp))
        h = 1 + j % 4
        h = min(h, 1 if target < 150 else 2 if target < 800 else 3 if target < 4000 else 4)
        while True:
            pairs = random_standard_pairs(rng, h, target, band=0.02)
            if pairs is not None:
                out.append(format_pairs(pairs))
                break
    return out


# ------------------------------------------------------------ family oracle


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def family_degree_gamma(fid: str, params: tuple[int, ...]) -> tuple[int, int]:
    """Degree and gamma of one family instance, from the family formulas."""
    if fid == "FZ1":
        d, _ = params
        return d, d - 2
    if fid in ("A", "B", "C", "D"):
        g, p, s = params
        degree = {
            "A": (g + 1) * p * s + 1,
            "B": (g + 1) * p * s - g,
            "C": (g * s + s + 1) * p + 1,
            "D": (g * s + s + 1) * p - g,
        }[fid]
        return degree, g
    (k,) = params
    if fid == "E":
        return 8 * k + 6, 2
    if fid == "F":
        return 8 * k + 2, 2
    if fid == "G":
        return 2 * k - 1, k
    if fid == "OR1":
        return fibonacci(4 * k + 2), 2
    return 2 * fibonacci(4 * k + 2), 2


def family_instances(max_degree: int) -> set[tuple[str, tuple[int, ...]]]:
    """Every (family, params) in its domain with degree <= max_degree.

    Each degree formula grows in every parameter, so each loop stops at
    the first parameter value whose smallest degree exceeds the bound.
    """
    out: set = set()

    def fits(fid, params):
        return family_degree_gamma(fid, params)[0] <= max_degree

    for d in range(3, max_degree + 1):
        for k in range((d + 1) // 2 - 1, d - 2):
            out.add(("FZ1", (d, k)))
    for fid, s_min in (("A", 1), ("B", 2), ("C", 1), ("D", 1)):
        g = 1
        while fits(fid, (g, 2, s_min)):
            p = 2
            while fits(fid, (g, p, s_min)):
                s = s_min
                while fits(fid, (g, p, s)):
                    if not (fid in ("A", "B") and (g, p) == (1, 2)):
                        out.add((fid, (g, p, s)))
                    s += 1
                p += 1
            g += 1
    for fid, k0 in (("E", 1), ("F", 1), ("G", 3), ("OR1", 1), ("OR2", 1)):
        k = k0
        while fits(fid, (k,)):
            out.add((fid, (k,)))
            k += 1
    return out


# ------------------------------------------------------------ output checks

_CURVE_LINE = re.compile(
    r"(?P<fid>[A-Z0-9]+)\((?P<params>[\d,]+)\)\s+degree (?P<d>\d+)\s+gamma (?P<g>\d+)\s+"
    r"cusps (?P<cusps>.+?)  audit (?P<audit>\S+)$")


def check_enumerate_output(text: str, max_degree: int) -> list[str]:
    """Check `family enumerate --max-degree D --audit` text output."""
    problems: list[str] = []
    lines = text.splitlines()
    want = family_instances(max_degree)
    if not lines or lines[-1] != f"{len(want)} curves with degree <= {max_degree}":
        problems.append(f"summary line {lines[-1] if lines else None!r}, "
                        f"expected {len(want)} curves")
    seen: set = set()
    keys: set = set()
    for line in lines[:-1]:
        m = _CURVE_LINE.match(line)
        if m is None:
            problems.append(f"unparsed line {line!r}")
            continue
        inst = (m["fid"], tuple(int(v) for v in m["params"].split(",")))
        d, g = int(m["d"]), int(m["g"])
        if m["audit"] != "ok":
            problems.append(f"{line}: audit not ok")
        if inst not in want:
            problems.append(f"{line}: not an instance of degree <= {max_degree}")
        elif family_degree_gamma(*inst) != (d, g):
            problems.append(f"{line}: degree/gamma differ from {family_degree_gamma(*inst)}")
        if inst in seen:
            problems.append(f"{line}: instance listed twice")
        seen.add(inst)
        cusps = m["cusps"].split(" + ")
        key = tuple(sorted(cusps))
        if key in keys:
            problems.append(f"{line}: cusp multiset repeats an earlier curve")
        keys.add(key)
        genus_sum = i_sum = 0
        for cusp in cusps:
            mi, ii = m_and_i(multiplicity_runs(parse_pairs(cusp)))
            genus_sum += ii - mi
            i_sum += ii
        if genus_sum != (d - 1) * (d - 2):
            problems.append(f"{line}: sum of m(m-1) = {genus_sum} != (d-1)(d-2)")
        if i_sum != g + d * d:
            problems.append(f"{line}: sum of I = {i_sum} != gamma + d^2")
    missing = want - seen
    if missing:
        problems.append(f"{len(missing)} instances missing, e.g. {sorted(missing)[0]}")
    return problems


def check_invariants_json(hn: str, obj: dict) -> list[str]:
    """Check one `invariants --hn HN --json` record of a standard HN sequence."""
    problems: list[str] = []
    pairs = parse_pairs(hn)
    runs = multiplicity_runs(pairs)
    m, i = m_and_i(runs)
    conductor = i - m
    if format_pairs((int(c), int(p)) for c, p in obj["hn"]) != hn:
        problems.append(f"{hn}: hn field {obj['hn']}")
    if [int(e) for e in obj["mult_reduced"]] != reduced_entries(runs):
        problems.append(f"{hn}: multiplicities differ from the Euclidean expansion")
    if (int(obj["M"]), int(obj["I"])) != (m, i):
        problems.append(f"{hn}: (M, I) = ({obj['M']}, {obj['I']}), expected ({m}, {i})")
    if [int(b) for b in obj["puiseux_char"]] != puiseux_char(pairs):
        problems.append(f"{hn}: Puiseux characteristic {obj['puiseux_char']}")
    gaps = [int(k) for k in obj["gaps"]]
    gap_set = set(gaps)
    if gaps != sorted(gap_set) or (gaps and gaps[0] < 1):
        problems.append(f"{hn}: gaps not strictly ascending positive integers")
    if (max(gaps) + 1 if gaps else 0) != conductor:
        problems.append(f"{hn}: conductor from gaps != I - M = {conductor}")
    if 2 * len(gaps) != conductor:
        problems.append(f"{hn}: {len(gaps)} gaps, expected (I - M)/2 = {conductor // 2}")
    # With C/2 gaps in [0, C), symmetry (k is a gap <=> C-1-k is not) says
    # exactly that no gap's mirror image is a gap.
    if any(conductor - 1 - k in gap_set for k in gaps):
        problems.append(f"{hn}: semigroup is not symmetric")
    coeffs = [int(a) for a in obj["alexander_coeffs"]]
    if len(coeffs) - 1 != conductor:
        problems.append(f"{hn}: Alexander polynomial degree {len(coeffs) - 1} != {conductor}")
    if coeffs != coeffs[::-1]:
        problems.append(f"{hn}: Alexander polynomial is not palindromic")
    if sum(coeffs) != 1:
        problems.append(f"{hn}: Alexander polynomial at t=1 is {sum(coeffs)}")
    return problems


def check_round_trips(hn: str, texts: dict) -> list[str]:
    """Check the convert outputs hn->mult->hn, hn->char->hn, hn->zariski->hn."""
    problems: list[str] = []
    pairs = parse_pairs(hn)
    mult = ",".join(str(e) for e in reduced_entries(multiplicity_runs(pairs)))
    beta = puiseux_char(pairs)
    char = f"{beta[0]};" + ",".join(str(b) for b in beta[1:])
    if texts["mult"] != mult:
        problems.append(f"{hn}: convert to mult gave {texts['mult'][:60]!r}")
    if texts["char"] != char:
        problems.append(f"{hn}: convert to char gave {texts['char']!r}, expected {char!r}")
    for via in ("mult", "char", "zariski"):
        if texts[f"{via}_hn"] != hn:
            problems.append(f"{hn}: hn->{via}->hn gave {texts[f'{via}_hn']!r}")
    return problems


def c2_closed_form(c: int) -> dict:
    """The cusp c/2 (c odd): multiplicities 2 x (c-1)/2 then 1, 1."""
    return {"conductor": c - 1, "M": c + 1, "I": 2 * c,
            "vertices": (c - 1) // 2 + 2, "discriminant": 1}


def or1_closed_form(k: int) -> dict:
    """The OR1 cusp of a unicuspidal curve of degree d = F(4k+2), gamma 2."""
    d = fibonacci(4 * k + 2)
    return {"raw_hn": f"{fibonacci(4 * k + 4)}/{fibonacci(4 * k)},3/1",
            "conductor": (d - 1) * (d - 2), "M": 3 * d, "I": 2 + d * d}


def g_closed_form(gamma: int) -> dict:
    """G(gamma): degree 2 gamma - 1 and the sums of M and I over its two cusps."""
    d = 2 * gamma - 1
    return {"degree": d, "sum_M": gamma - 2 + 3 * d, "sum_I": gamma + d * d}


def continuant(entries) -> int:
    prev, cur = 0, 1
    for a in entries:
        prev, cur = cur, a * cur - prev
    return cur


def check_resolve_json(c: int, obj: dict) -> list[str]:
    """Check `resolve --hn c/2 --json` against the closed form of c/2."""
    problems: list[str] = []
    want = c2_closed_form(c)
    weights = [int(w) for w in obj["weights"]]
    if len(weights) != want["vertices"]:
        problems.append(f"resolve {c}/2: {len(weights)} vertices, expected {want['vertices']}")
    if weights.count(-1) != 1 or weights[int(obj["curve_vertex"])] != -1:
        problems.append(f"resolve {c}/2: curve vertex is not the unique (-1)-curve")
    if len(obj["edges"]) != len(weights) - 1:
        problems.append(f"resolve {c}/2: {len(obj['edges'])} edges on {len(weights)} vertices")
    mult = [int(m) for m in obj["multiplicities"]]
    if mult != [2] * ((c - 1) // 2) + [1, 1]:
        problems.append(f"resolve {c}/2: multiplicities differ from the Euclidean expansion")
    chain = obj["chain"]
    entries = [int(a) for a in chain.strip("[]").split(",")] if chain else []
    if sorted(entries) != sorted(-w for w in weights):
        problems.append(f"resolve {c}/2: chain does not list the vertex weights")
    elif continuant(entries) != want["discriminant"]:
        problems.append(f"resolve {c}/2: chain discriminant {continuant(entries)} != 1")
    return problems
