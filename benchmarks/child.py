"""One benchmark operation in its own process.

Usage: python3 child.py '<job json>'

The job names an operation and its inputs.  The child applies the job's
address-space limit, imports cuspforge (refusing any copy other than the
one under the job's ``src``), optionally installs the tracer, runs the
operation and writes the operation's own output to stdout.  A traced job
also writes the trace summary to ``job["trace_out"]``; a job with
``tracemalloc`` writes the allocation peak to ``job["peak_out"]``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cli(argv):
    """cuspforge.cli.run with stdout and stderr captured: (code, stdout)."""
    import cuspforge.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def op_cli(job):
    """The CLI itself: stdout is the command's output, the exit code its code."""
    import cuspforge.cli as cli
    return cli.run(job["argv"])


def op_invariants_corpus(job):
    """`invariants --json` plus the three convert round trips, per cusp.

    Writes one JSON line per cusp: its latency, exit codes and outputs.
    The latency is the CPU time of the seven CLI calls and nothing else.
    """
    clock = time.process_time
    for hn in job["cusps"]:
        t0 = clock()
        codes, texts = [], {}
        code, out = _cli(["invariants", "--hn", hn, "--json"])
        codes.append(code)
        stdout_bytes = len(out)
        for via in ("mult", "char", "zariski"):
            code, there = _cli(["convert", "--from", "hn", "--to", via, hn])
            codes.append(code)
            code, back = _cli(["convert", "--from", via, "--to", "hn", there.strip()])
            codes.append(code)
            texts[via], texts[f"{via}_hn"] = there.strip(), back.strip()
            stdout_bytes += len(there) + len(back)
        latency = clock() - t0
        print(json.dumps({"hn": hn, "latency_s": latency, "codes": codes,
                          "invariants": out, "texts": texts, "stdout_bytes": stdout_bytes}))
    return 0


def op_full_audit_g(job):
    import cuspforge as cf
    record = cf.generate(cf.FamilySpec("G", (job["gamma"],)))
    report = cf.full_audit(record)
    values = {c.name: c.rhs for c in report.checks}
    print(json.dumps({
        "ok": report.ok, "checks": len(report.checks), "degree": record.degree,
        "sum_M": values["hn_equation_a"], "sum_I": values["hn_equation_b"],
        "cusps": [str(std) for std in record.standard_cusps],
    }))
    return 0


def op_resolution(job):
    import cuspforge as cf
    res = cf.resolution_graph(cf.parse_hn(job["hn"]))
    print(json.dumps({
        "vertices": len(res.tree),
        "discriminant": cf.discriminant(res.tree),
        "definite": cf.is_negative_definite(res.tree),
    }))
    return 0


def op_cusp_record(job):
    """cusp_record, reading only the conductor, M and I."""
    import cuspforge as cf
    rec = cf.cusp_record(cf.parse_hn(job["hn"]))
    print(json.dumps({"conductor": rec.semigroup.conductor, "M": rec.M, "I": rec.I}))
    return 0


def probe():
    """Call every traced function once on tiny inputs (all outputs discarded).

    It shows that each wrapper records, and it keeps a layer that the
    workload itself never reaches at a small measured figure, not a bare 0.
    """
    import cuspforge as cf
    record = cf.enumerate_curves(4)[0]
    cf.full_audit(record)
    cf.alexander_polynomial(cf.cusp_record(record.standard_cusps[0]).semigroup)


OPS = {
    "cli": op_cli,
    "invariants_corpus": op_invariants_corpus,
    "full_audit_g": op_full_audit_g,
    "resolution": op_resolution,
    "cusp_record": op_cusp_record,
}


def main() -> int:
    job = json.loads(sys.argv[1])
    if "cpu" in job:
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[job["cpu"]]})
    if job.get("as_limit_mb"):
        limit = job["as_limit_mb"] << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import cuspforge
    import cuspforge.cli  # noqa: F401  (loaded before tracing patches it)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cuspforge.__file__).startswith(src + os.sep):
        print(f"error: cuspforge imported from {cuspforge.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        if job.get("probe"):
            probe()
            missing = set(tracing.span_names()) - set(tracer.summary()["calls"]) - {"cli.run"}
            if missing:
                print(f"error: tracer saw no call of {sorted(missing)}", file=sys.stderr)
                return 3
    if job.get("tracemalloc"):
        import tracemalloc
        tracemalloc.start()
    t0 = time.perf_counter()
    code = OPS[job["op"]](job)
    sys.stdout.flush()
    print(f"op_s {time.perf_counter() - t0}", file=sys.stderr)
    if job.get("tracemalloc"):
        with open(job["peak_out"], "w") as fh:
            json.dump({"peak_bytes": tracemalloc.get_traced_memory()[1]}, fh)
    if tracer is not None:
        with open(job["trace_out"], "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
