"""Reference scaling series: cost against the value of the input.

Usage (from the repository root):

    python3 benchmarks/scaling.py

Not a benchmark workload.  It times cusp_record(c/2) and
resolution_graph(c/2) followed by discriminant and is_negative_definite
("resolution+checks") for c = 10^3 ... 10^6 and cusp_record of the OR1
cusp for k = 1 ... 3, each point in its own child process, once without
and once with tracemalloc, and prints the operation's own time (without
interpreter start-up or tracemalloc) and the tracemalloc peak.  Along
each series the input's bit-length grows by about 3.3 bits per row while
the cost grows about tenfold: the value-versus-bit-length slope.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import oracles
from run import ROOT, Runner, import_guard

DEADLINE_S = 300


def series():
    for exponent in range(3, 7):
        c = 10 ** exponent + 1
        yield f"cusp_record({c}/2)", {"op": "cusp_record", "hn": f"{c}/2"}
    for exponent in range(3, 7):
        c = 10 ** exponent + 1
        yield f"resolution+checks({c}/2)", {"op": "resolution", "hn": f"{c}/2"}
    for k in range(1, 4):
        yield f"cusp_record(OR1 k={k})", {"op": "cusp_record", "hn": oracles.or1_closed_form(k)["raw_hn"]}


def main() -> int:
    info = import_guard()
    print(f"# cuspforge {info['cuspforge']} commit {info['commit']} "
          f"python {info['python']} nproc {info['nproc']}")
    print(f"{'operation':<28} {'bits':>5} {'op_s':>9} {'tracemalloc_peak_mb':>20}")
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="scaling-", dir=os.path.join(ROOT, ".bench_tmp"))
    runner = Runner(tmp)
    try:
        for label, job in series():
            timed = runner.job(job, DEADLINE_S)
            peak_out = os.path.join(tmp, "peak.json")
            traced = runner.job(dict(job, tracemalloc=True, peak_out=peak_out), DEADLINE_S)
            if timed.code != 0 or traced.code != 0:
                print(f"{label:<28} failed: {timed.stderr.strip() or traced.stderr.strip()}")
                continue
            with open(peak_out) as fh:
                peak_mb = json.load(fh)["peak_bytes"] / 2 ** 20
            op_s = float(timed.stderr.split()[-1])
            bits = max(int(v).bit_length() for v in job["hn"].replace("/", ",").split(","))
            print(f"{label:<28} {bits:>5} {op_s:>9.3f} {peak_mb:>20.1f}", flush=True)
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
