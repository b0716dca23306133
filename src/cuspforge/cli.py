"""Command-line front-end.

Subcommands: invariants, convert, resolve, family gen|enumerate, verify,
ledger.  Exit codes: 0 success, 1 failed audit, 2 usage error.  `--json`
selects machine output; `-` as a file argument means stdout.  Output is
deterministic byte-for-byte for a fixed invocation.
"""

from __future__ import annotations

# The layers load before argparse and json: compiled with those already
# resident, they raise a CLI process's peak RSS by about 0.4 MB.
from .divisor import _dot_pieces, _edge_texts, _edge_walk, _vertex_walk, resolution_graph
from .errors import CuspforgeError
from .families import (
    FAMILY_IDS,
    CurveRecord,
    FamilySpec,
    enumerate_curves,
    generate,
)
from .hn import _is_digits, format_hn, parse_hn, standardize
from .invariants import (
    ZARISKI,
    PairList,
    _run_texts,
    _spans,
    cusp_record,
    hn_from_zariski,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    multiplicity_to_standard_hn,
    parse_multiplicity,
    parse_puiseux_char,
    puiseux_char_to_standard_hn,
    zariski_from_hn,
)
from .verify import (
    GENERIC,
    Q_ACYCLIC_CSTST,
    AuditReport,
    FibrationLedger,
    _audit_each,
    fibration_ledger,
    full_audit,
)

import argparse
import json
import sys
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence


def _int(token: str) -> int:
    """ASCII decimal digits after an optional `-`; whitespace around them is ignored."""
    try:
        if not _is_digits(token.strip().removeprefix("-")):
            raise ValueError
        return int(token, 10)
    except ValueError:
        raise ValueError(f"invalid integer {token!r}") from None


def _int_arg(token: str) -> int:
    """`_int` as an argparse type: a bad token is a usage error of its argument."""
    try:
        return _int(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_int_arg(tok.strip()) for tok in text.split(","))


def _parse_pair_list(text: str) -> PairList:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty pair list text")
    pairs = [item.split(",") for item in s[1:-1].split("),(")]
    if s[:1] + s[-1:] != "()" or not all(
            len(pair) == 2 and all(map(_is_digits, pair)) for pair in pairs):
        raise ValueError(f"invalid pair list text {text!r}")
    return PairList(ZARISKI, tuple((int(b), int(a)) for b, a in pairs))


# name -> (reader: text -> standard HN, writer: standard HN -> text)
_REPRESENTATIONS = {
    "hn": (lambda text: standardize(parse_hn(text)), format_hn),
    "mult": (lambda text: multiplicity_to_standard_hn(parse_multiplicity(text)),
             lambda std: hn_to_multiplicity(std).to_text()),
    "char": (lambda text: puiseux_char_to_standard_hn(parse_puiseux_char(text)),
             lambda std: hn_to_puiseux_char(std).to_text()),
    "zariski": (lambda text: hn_from_zariski(_parse_pair_list(text)),
                lambda std: zariski_from_hn(std).to_text()),
}
REPRESENTATIONS = tuple(_REPRESENTATIONS)


def _write_pieces(path: str, pieces) -> None:
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for values whose dict keys are strings.

    `pad` is the newline and indentation of `obj`'s own level.  Containers
    recurse, strings are escaped by the C encoder of ``json.dumps`` and
    other scalars go through ``json.dumps`` itself.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(
            _json_text(item, inner) for item in obj) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in obj.items()) + pad + "}"
    return json.dumps(obj)


def _print_json(obj: dict) -> None:
    """Print ``json.dumps(obj, indent=2)`` for a non-empty dict, key by key.

    An iterator value is encoded text in pieces, written as they arrive;
    every other value is encoded before the first byte, so one too large
    to encode fails with no output.
    """
    texts = [(key, value if isinstance(value, Iterator) else (_json_text(value, "\n  "),))
             for key, value in obj.items()]
    for i, (key, pieces) in enumerate(texts):
        sys.stdout.write(("," if i else "{") + "\n  " + encode_basestring_ascii(key) + ": ")
        sys.stdout.writelines(pieces)
    sys.stdout.write("\n}\n")


def _joined(pieces, sep: str):
    """The text pieces with `sep` between each two, where `sep.join` puts it."""
    first = True
    for piece in pieces:
        if not first:
            yield sep
        first = False
        yield piece


def _json_list(pieces, pad: str):
    """An indent-2 JSON array at level `pad`, in pieces.

    Each of `pieces` holds encoded items already joined by the item
    separator.  The pieces are never empty: a cusp has a gap, a reduced
    multiplicity and at least three Alexander coefficients, and a
    resolution at least three vertices and two edges.
    """
    inner = pad + "  "
    yield "[" + inner
    yield from _joined(pieces, "," + inner)
    yield pad + "]"


def _print_rows(rows: Sequence[tuple[str, object]]) -> None:
    """Aligned `key  value` lines; a value is a string or an iterable of pieces."""
    width = max(len(k) for k, _ in rows)
    out = sys.stdout
    for key, value in rows:
        out.write(f"{key:<{width}}  ")
        out.writelines((value,) if isinstance(value, str) else value)
        out.write("\n")


def _print_report(report: AuditReport) -> None:
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        print(f"{flag} {c.name:<{width}}  {c.lhs} {c.rhs}")
    failed = report.failed()
    if failed:
        print(f"FAILED ({len(failed)} of {len(report.checks)} checks)")
    else:
        print(f"ok ({len(report.checks)} checks)")


def _print_audit(report: AuditReport, as_json: bool) -> int:
    """Print a `verify` or `ledger` report; the exit code, 1 when a check failed."""
    if as_json:
        _print_json(report.to_json_obj())
    else:
        _print_report(report)
    return 0 if report.ok else 1


# ---------------------------------------------------------------- handlers


def _cmd_invariants(args: argparse.Namespace) -> int:
    if (args.hn is None) == (args.mult is None):
        raise ValueError("invariants needs exactly one of --hn or --mult")
    source = "hn" if args.hn is not None else "mult"
    record = cusp_record(_REPRESENTATIONS[source][0](getattr(args, source)))
    record.semigroup._members     # raises past an index, before any output
    if args.json:
        pad = "\n  "
        # a piece of a long list lacks only its outer quotes
        _print_json({key: value if isinstance(value, (str, list))
                     else _json_list(('"' + piece + '"' for piece in value), pad)
                     for key, value in record._json_fields('",' + pad + '  "').items()})
        return 0
    # the text rows join the same decimal strings
    fields = record._json_fields(",")
    _print_rows([
        ("hn", format_hn(record.hn)),
        ("mult", _joined(fields["mult_reduced"], ",")),
        ("char", record.char.to_text()),
        ("puiseux", record.puiseux.to_text()),
        ("zariski", record.zariski.to_text()),
        ("semigroup", ",".join(fields["semigroup_generators"])),
        ("gaps", _joined(fields["gaps"], ",")),
        ("alexander", _joined(fields["alexander_coeffs"], ",")),
        ("M", fields["M"]),
        ("I", fields["I"]),
    ])
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    std = _REPRESENTATIONS[args.source][0](args.text)
    print(_REPRESENTATIONS[args.target][1](std))
    return 0


def _weight_texts(res):
    """The `v<id>:<weight>` items of the text row, in pieces."""
    for first, count, weight in _vertex_walk(res.runs):
        for start, size in _spans(first, count):
            yield "v" + f":{weight} v".join(map(str, range(start, start + size))) + f":{weight}"


def _cmd_resolve(args: argparse.Namespace) -> int:
    """Written from the run form in pieces: no output holds every vertex."""
    std = standardize(parse_hn(args.hn))
    res = resolution_graph(std)
    vertices = len(res)     # raises past an index, before any output
    if args.dot is not None:
        _write_pieces(args.dot, _dot_pieces(res))
        return 0
    try:
        chain_text = chain("[", _joined(_run_texts(res._chain_runs(), "{}", ","), ","), "]")
    except ValueError:
        chain_text = None
    if args.json:
        pad, inner = "\n  ", "\n    "
        sep = "," + inner
        edge_open, edge_close = "[" + inner + '  "', '"' + inner + "]"
        _print_json({
            "hn": std.to_json_obj(),
            "weights": _json_list(_run_texts(
                ((w, n) for _, n, w in _vertex_walk(res.runs)), '"{}"', sep), pad),
            "edges": _json_list((edge_open + text + edge_close for text in _edge_texts(
                _edge_walk(res.runs, res.links), '",' + inner + '  "',
                edge_close + sep + edge_open)), pad),
            "curve_vertex": str(res.c_vertex),
            "multiplicities": _json_list(_run_texts(res.mult.runs, '"{}"', sep), pad),
            "chain": None if chain_text is None else chain('"', chain_text, '"'),
        })
        return 0
    rows = [
        ("hn", format_hn(std)),
        ("vertices", str(vertices)),
        ("weights", _joined(_weight_texts(res), " ")),
        ("edges", _joined(("v" + text for text in _edge_texts(
            _edge_walk(res.runs, res.links), "-v", " v")), " ")),
        ("curve", f"v{res.c_vertex}"),
        ("mult", _joined(_run_texts(res.mult.runs, "{}", ","), ",")),
    ]
    if chain_text is not None:
        rows.append(("chain", chain_text))
    _print_rows(rows)
    return 0


def _curve_line(record: CurveRecord) -> str:
    name = str(record.family) if record.family is not None else "-"
    cusps = " + ".join(format_hn(std) for _, std in record.cusps)
    return f"{name:<12} degree {record.degree:<4} gamma {record.gamma:<3} cusps {cusps}"


def _cmd_family_gen(args: argparse.Namespace) -> int:
    spec = FamilySpec(args.id, tuple(args.params))
    record = generate(spec)
    report = full_audit(record) if args.audit else None
    if args.json:
        obj = record.to_json_obj()
        if report is not None:
            obj["audit"] = report.to_json_obj()
        _print_json(obj)
    else:
        rows = [
            ("family", str(spec)),
            ("degree", str(record.degree)),
            ("gamma", str(record.gamma)),
        ]
        for i, (raw, std) in enumerate(record.cusps, start=1):
            rows.append((f"cusp {i}", f"{format_hn(raw)}  (standard {format_hn(std)})"))
        _print_rows(rows)
        if report is not None:
            _print_report(report)
    return 0 if report is None or report.ok else 1


def _cmd_family_enumerate(args: argparse.Namespace) -> int:
    records = enumerate_curves(args.max_degree)
    # only the verdicts are printed, so no report outlives its audit
    verdicts: list[Optional[bool]] = [None] * len(records)
    if args.audit:
        verdicts = [report.ok for report in _audit_each(records)]
    if args.json:
        curves = []
        for record, ok in zip(records, verdicts):
            obj = record.to_json_obj()
            if ok is not None:
                obj["audit_ok"] = ok
            curves.append(obj)
        _print_json({"curves": curves})
    else:
        for record, ok in zip(records, verdicts):
            line = _curve_line(record)
            if ok is not None:
                line += "  audit " + ("ok" if ok else "FAILED")
            print(line)
        print(f"{len(records)} curves with degree <= {args.max_degree}")
    return 1 if False in verdicts else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    explicit = args.degree is not None or args.gamma is not None or args.hn
    if args.family is not None:
        if explicit:
            raise ValueError("verify takes either --family or an explicit curve, not both")
        # FamilySpec checks the id before it draws the parameters from the generator
        spec = FamilySpec(args.family[0], (_int(tok) for tok in args.family[1:]))
        report = full_audit(spec)
    else:
        if args.degree is None or args.gamma is None or not args.hn:
            raise ValueError("verify needs --family, or --degree, --gamma and at least one --hn")
        seqs = [parse_hn(text) for text in args.hn]
        record = CurveRecord.from_cusps(args.degree, args.gamma, seqs)
        report = full_audit(record)
    return _print_audit(report, args.json)


def _cmd_ledger(args: argparse.Namespace) -> int:
    ledger = FibrationLedger(args.h, args.nu, args.sigmas, args.chis)
    return _print_audit(fibration_ledger(ledger, args.mode), args.json)


# ------------------------------------------------------------------ parser


@lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its routes, built once per process.

    Parsing leaves both unchanged.  A route maps the subcommand names that
    open an argv, such as ``("family", "gen")``, to their leaf parser and
    the ``command``/``action`` values that the subparsers would set.
    """
    parser = argparse.ArgumentParser(
        prog="cuspforge",
        description="Exact-arithmetic invariants of plane-curve cusps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    routes = {}

    def leaf(subparsers, *route: str, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(route[-1], **kwargs)
        routes[route] = p, dict(zip(("command", "action"), route))
        return p

    p = leaf(sub, "invariants", help="full invariant record of one cusp")
    p.add_argument("--hn", help="HN pairs, e.g. '6/4,2/3'")
    p.add_argument("--mult", help="reduced multiplicity sequence, e.g. '4,2,2,2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_invariants)

    p = leaf(sub, "convert", help="convert between cusp representations")
    p.add_argument("--from", dest="source", required=True, choices=REPRESENTATIONS)
    p.add_argument("--to", dest="target", required=True, choices=REPRESENTATIONS)
    p.add_argument("text", help="input in the --from representation")
    p.set_defaults(handler=_cmd_convert)

    p = leaf(sub, "resolve", help="dual graph of the minimal embedded resolution")
    p.add_argument("--hn", required=True, help="HN pairs, e.g. '13/4'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="PATH", help="write DOT to PATH ('-' for stdout)")
    p.set_defaults(handler=_cmd_resolve)

    p = sub.add_parser("family", help="curve families")
    fam_sub = p.add_subparsers(dest="action", required=True)
    g = leaf(fam_sub, "family", "gen", help="generate one family instance")
    g.add_argument("id", choices=FAMILY_IDS)
    g.add_argument("params", nargs="*", type=_int_arg)
    g.add_argument("--json", action="store_true")
    g.add_argument("--audit", action="store_true")
    g.set_defaults(handler=_cmd_family_gen)
    e = leaf(fam_sub, "family", "enumerate", help="all instances up to a degree bound")
    e.add_argument("--max-degree", required=True, type=_int_arg)
    e.add_argument("--json", action="store_true")
    e.add_argument("--audit", action="store_true")
    e.set_defaults(handler=_cmd_family_enumerate)

    p = leaf(sub, "verify", help="run the full audit on a curve")
    p.add_argument("--family", nargs="+", metavar="ID|PARAM",
                   help="family id followed by its parameters")
    p.add_argument("--degree", type=_int_arg)
    p.add_argument("--gamma", type=_int_arg)
    p.add_argument("--hn", action="append", default=[],
                   help="one cusp; repeat for several")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = leaf(sub, "ledger", help="fibration counting identities")
    p.add_argument("--h", required=True, type=_int_arg)
    p.add_argument("--nu", required=True, type=_int_arg)
    p.add_argument("--sigmas", required=True, type=_int_list)
    p.add_argument("--chis", type=_int_list)
    p.add_argument("--mode", choices=(GENERIC, Q_ACYCLIC_CSTST), default=GENERIC)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_ledger)

    return parser, routes


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parse_args(argv)`` of the full parser, in one argparse pass where it can.

    An argv that opens with a route goes straight to its leaf parser, which
    is what the subparsers would call.  Any other argv, and one the leaf
    leaves arguments over from, goes through the full parser, so every help
    text and usage error comes from it as before.
    """
    parser, routes = _build_parser()
    route = routes.get(tuple(argv[:1])) or routes.get(tuple(argv[:2]))
    if route is not None:
        leaf, names = route
        args, extras = leaf.parse_known_args(argv[len(names):], argparse.Namespace(**names))
        if not extras:
            return args
    return parser.parse_args(argv)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI command in this process and return its exit code.

    `argv` holds the arguments after the program name (any sequence of
    strings); None reads ``sys.argv[1:]``.  Exit codes: 0 on success, 1
    when an audit or ledger check fails, 2 for a usage error (argparse's
    ``usage:`` line and ``cuspforge <command>: error: ...`` on stderr) or
    an input error (``error: ...`` on stderr).  Help exits 0.

    The parser is built once per process and reused by every call.  An argv
    that opens with a subcommand's exact name (``family gen`` and ``family
    enumerate`` for the nested ones) is parsed by that subcommand's parser
    alone; any other argv, or one with arguments left over, goes through
    the full parser, so help, usage errors and exit codes are the same.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (CuspforgeError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this process", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
