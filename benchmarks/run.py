"""cuspforge benchmark: three seeded workloads, checked against independent oracles.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): enumerate-audit, cusp-invariants,
large-parameters.  The program always runs in child processes, so the
peak RSS is the program's own.  Each run repeats whole rounds of its
workload's operations until the next round would end after ``--seconds``
(at least two rounds); times are CPU times (user plus system, all threads
of the child), each operation's median over the rounds, corrected for the
machine's speed by a reference loop timed in the same run.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run alternates two untraced and two traced rounds and
carries the per-layer metrics instead.  The exit code is 0
whenever that line is printed; a wrong answer sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import oracles
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 11
MIN_ROUNDS = 2
# A run starts no round that would end after this many seconds, even below
# MIN_ROUNDS, so that a much slower program still ends a run in time.
RUN_LIMIT_S = 120
TRACE_PAIRS = 2
AS_LIMIT_MB = 2048
# The reference loop: fixed pure-Python work that imports nothing from
# cuspforge, timed REF_SAMPLES times on each CPU before the set-up, before
# every round and after the last.  When the shared host runs Python faster
# or slower for a while, the workloads' CPU times change about as much as
# the square root of the loop's (measured exponents 0.50 to 0.57), so a run
# multiplies its times by (REF_NOMINAL_S / the loop's median time) **
# REF_EXPONENT.  REF_NOMINAL_S is the loop's typical time on the
# reference machine.
REF_SIZE = 20000
REF_NOMINAL_S = 0.0100
REF_SAMPLES = 3
REF_EXPONENT = 0.5
# Single-threaded children alternate between the CPUs this process may use,
# so that an operation's times are not all those of one busy CPU.
CPUS = len(os.sched_getaffinity(0))

PER_LAYER = [
    ("hn.standardize.calls", "count"),
    ("hn.standardize.self_s", "s"),
    ("hn.validate.calls", "count"),
    ("hn.validate.self_s", "s"),
    ("invariants.semigroup_of.self_s", "s"),
    ("invariants.alexander_polynomial.self_s", "s"),
    ("invariants.cusp_record.calls", "count"),
    ("invariants.cusp_record.self_s", "s"),
    ("invariants.conductor_sum", "count"),
    ("invariants.hn_to_multiplicity.calls", "count"),
    ("invariants.hn_to_multiplicity.self_s", "s"),
    ("invariants.multiplicity_to_standard_hn.self_s", "s"),
    ("invariants.compute_M_I.self_s", "s"),
    ("divisor.resolution_graph.calls", "count"),
    ("divisor.resolution_graph.self_s", "s"),
    ("divisor.resolution_vertices", "count"),
    ("divisor.discriminant.self_s", "s"),
    ("divisor.is_negative_definite.self_s", "s"),
    ("divisor.WeightedTree.adjacency.calls", "count"),
    ("families.enumerate_curves.self_s", "s"),
    ("families.generate.calls", "count"),
    ("families.generate.self_s", "s"),
    ("families.expected_reduced_multiplicities.self_s", "s"),
    ("verify.full_audit.calls", "count"),
    ("verify.full_audit.self_s", "s"),
    ("verify.check_hn_equations.self_s", "s"),
    ("verify.checks", "count"),
    ("cli.run.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.untraced_cpu_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchmarkError(Exception):
    """The benchmark itself cannot run or cannot trust its checks."""


class Missed(float):
    """The time charged to an operation that missed its deadline: the deadline.

    It is a fixed time, so it is not corrected for the machine's speed.
    """


def op_time(child: "Child", deadline_s: float) -> float:
    return Missed(deadline_s) if child.timed_out else child.cpu_s


# ------------------------------------------------------------ processes


@dataclass
class Child:
    """Outcome of one child process: wall and CPU time, exit code, peak RSS, output."""

    wall_s: float
    cpu_s: float
    code: int
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str
    trace: dict | None = None


class Runner:
    """Runs children through the launcher, with this checkout's src first on the path."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        env = dict(os.environ)
        env.pop("CUSPFORGE_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.count = 0
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv, deadline_s: float) -> Child:
        """Run argv to its end or its deadline; the clock spans spawn to exit."""
        self.count += 1
        out_path = os.path.join(self.tmp, f"out{self.count}")
        err_path = os.path.join(self.tmp, f"err{self.count}")
        request = {"argv": argv, "out": out_path, "err": err_path, "deadline_s": deadline_s}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchmarkError("the launcher process ended early")
        reply = json.loads(line)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return Child(reply["wall_s"], reply["cpu_s"], reply["code"], reply["rss_mb"],
                     reply["timed_out"], stdout, stderr)

    def job(self, job: dict, deadline_s: float, traced: bool = False, probe: bool = False) -> Child:
        job = dict(job, src=SRC, as_limit_mb=AS_LIMIT_MB)
        self.count += 1
        trace_out = os.path.join(self.tmp, f"trace{self.count}.json")
        if traced:
            job.update(trace=True, probe=probe, trace_out=trace_out)
        argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]
        child = self.spawn(argv, deadline_s)
        if traced and os.path.exists(trace_out):
            with open(trace_out) as fh:
                child.trace = json.load(fh)
            os.remove(trace_out)
        return child


def measure_setup(runner: Runner) -> float:
    """Median CPU time of a fresh interpreter that imports cuspforge."""
    argv = [sys.executable, "-c", "import cuspforge"]
    runner.spawn(argv, 60)  # warm the bytecode cache once, untimed
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = runner.spawn(argv, 60)
        if child.code != 0:
            raise BenchmarkError(f"import cuspforge failed: {child.stderr.strip()}")
        samples.append(child.cpu_s)
    return statistics.median(samples)


def reference_loop() -> float:
    """CPU time of one pass of the reference loop."""
    t0 = time.process_time()
    table: dict[int, int] = {}
    acc = []
    for k in range(REF_SIZE):
        key = (k * 7919) % 1021
        table[key] = table.get(key, 0) + k
        acc.append(divmod(k * k + key, 97))
    acc.sort()
    return time.process_time() - t0


class Speed:
    """Reference-loop CPU times sampled through a run, on each CPU it may use."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self.samples.extend(reference_loop() for _ in range(REF_SAMPLES))
        finally:
            os.sched_setaffinity(0, cpus)

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        return (REF_NOMINAL_S / self.median()) ** REF_EXPONENT


# ------------------------------------------------------------ workloads


class Round:
    """One round of a workload: timings, failures and what went wrong."""

    def __init__(self) -> None:
        self.latencies: list[float | None] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.traces: list[dict] = []
        self.stdout_bytes = 0

    def fail(self, name: str, reason: str) -> None:
        self.attempted += 1
        self.failures.append(f"{name}: {reason}")

    def op(self, name: str, child: Child | None, check) -> list[str]:
        """Account one operation and return its problems.

        A missed deadline or a non-zero exit code of the operation's child
        is a failure; so is a wrong answer, which also marks the run as
        not correct.  ``check`` returns the problems with the output.
        """
        if child is not None and child.timed_out:
            self.fail(name, f"missed its deadline after {child.wall_s:.2f} s")
            return []
        if child is not None and child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            self.fail(name, f"exit code {child.code} {tail[0]}")
            return []
        try:
            problems = check()
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"{name}: unreadable output ({exc!r})"]
        if problems:
            self.fail(name, "wrong answer")
            self.wrong.extend(problems[:5])
        else:
            self.attempted += 1
        return problems


def expect_caught(label: str, problems: list[str]) -> None:
    """A check must reject a deliberately corrupted output."""
    if not problems:
        raise BenchmarkError(f"self-check: the check accepted {label}")


class EnumerateAudit:
    """`family enumerate --max-degree D --audit`, one child per round."""

    MAX_DEGREE = 80
    DEADLINE_S = 60
    groups = 1  # the child is not pinned

    def __init__(self, seed: int) -> None:
        # The family table up to a degree has no free choices: the seed
        # selects nothing here.
        self.argv = ["family", "enumerate", "--max-degree", str(self.MAX_DEGREE), "--audit"]

    def round(self, runner: Runner, index: int, traced: bool, self_check: bool) -> Round:
        rnd = Round()
        child = runner.job({"op": "cli", "argv": self.argv}, self.DEADLINE_S, traced,
                           probe=traced)
        problems = rnd.op("enumerate-audit", child,
                          lambda: oracles.check_enumerate_output(child.stdout, self.MAX_DEGREE))
        rnd.latencies.append(op_time(child, self.DEADLINE_S))
        rnd.rss_mb = child.rss_mb
        rnd.stdout_bytes = len(child.stdout)
        if child.trace:
            rnd.traces.append(child.trace)
        if self_check and child.code == 0 and not problems:
            lines = child.stdout.splitlines(keepends=True)
            dropped = "".join(lines[:100] + lines[101:])
            expect_caught("a dropped curve", oracles.check_enumerate_output(dropped, self.MAX_DEGREE))
            line = lines[100]
            c = line.split(" cusps ")[1].split("/")[0]
            lines[100] = line.replace(f" cusps {c}/", f" cusps {int(c) + 2}/", 1)
            expect_caught("a mutated cusp", oracles.check_enumerate_output("".join(lines), self.MAX_DEGREE))
        return rnd


class CuspInvariants:
    """In-process `invariants --json` and convert round trips over a seeded corpus."""

    SIZE = 200
    DEADLINE_S = 60
    groups = CPUS  # round k runs on CPU k mod CPUS
    LOW, HIGH, TOP = 100, 10000, 0.2

    def __init__(self, seed: int) -> None:
        self.cusps = oracles.invariants_corpus(seed, self.SIZE, self.LOW, self.HIGH, self.TOP)
        # Outputs that passed the checks, by cusp.  Every round gives the
        # same outputs; a later round's output that equals a checked one
        # needs no second check, which keeps rounds short.
        self.checked: dict[str, tuple] = {}

    def round(self, runner: Runner, index: int, traced: bool, self_check: bool) -> Round:
        rnd = Round()
        job = {"op": "invariants_corpus", "cusps": self.cusps, "cpu": index % CPUS}
        child = runner.job(job, self.DEADLINE_S, traced, probe=traced)
        records = []
        for line in child.stdout.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:  # a child killed while writing leaves a cut line
                break
        rnd.rss_mb = child.rss_mb
        if child.trace:
            rnd.traces.append(child.trace)
        for k, hn in enumerate(self.cusps):
            name = f"invariants {hn}"
            if k >= len(records) or records[k]["hn"] != hn:
                rnd.latencies.append(None)
                rnd.fail(name, f"no output (child exit code {child.code})")
                continue
            rec = records[k]
            rnd.latencies.append(rec["latency_s"])
            rnd.stdout_bytes += rec["stdout_bytes"]
            if any(rec["codes"]):
                rnd.fail(name, f"exit codes {rec['codes']}")
                continue
            outputs = (rec["invariants"], rec["texts"])
            if self.checked.get(hn) == outputs:
                rnd.attempted += 1
                continue
            problems = rnd.op(name, None, lambda: (
                oracles.check_invariants_json(hn, json.loads(rec["invariants"]))
                + oracles.check_round_trips(hn, rec["texts"])))
            if not problems:
                self.checked[hn] = outputs
            if self_check and k == len(self.cusps) // 2 and not problems:
                self.corrupt_and_check(hn, json.loads(rec["invariants"]))
        return rnd

    @staticmethod
    def corrupt_and_check(hn: str, obj: dict) -> None:
        mutated = dict(obj, mult_reduced=obj["mult_reduced"][:-1] + [str(int(obj["mult_reduced"][-1]) + 1)])
        expect_caught("a mutated multiplicity", oracles.check_invariants_json(hn, mutated))
        gaps = [int(k) for k in obj["gaps"]]
        flipped = sorted(set(gaps) ^ {gaps[len(gaps) // 2] + 1})
        expect_caught("a flipped gap",
                      oracles.check_invariants_json(hn, dict(obj, gaps=[str(k) for k in flipped])))


class LargeParameters:
    """Single huge instances, each operation in its own limited child."""

    HOSTILE = 100000001
    HOSTILE_DEADLINE_S = 3.0
    DEADLINE_S = 15.0
    groups = CPUS  # round k runs on CPU k mod CPUS

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # Small seeded offsets: the inputs differ per seed, their cost hardly.
        self.gamma = 40000 + rng.randrange(400)
        self.c_resolution = 120001 + 2 * rng.randrange(600)
        self.c_record = 1600001 + 2 * rng.randrange(8000)
        self.c_cli = 140001 + 2 * rng.randrange(700)
        self.or1_k = 3

    def ops(self):
        or1 = oracles.or1_closed_form(self.or1_k)
        return [
            (f"full_audit(G({self.gamma}))", {"op": "full_audit_g", "gamma": self.gamma},
             self.DEADLINE_S, self.check_g),
            (f"resolution_graph({self.c_resolution}/2)",
             {"op": "resolution", "hn": f"{self.c_resolution}/2"}, self.DEADLINE_S,
             self.check_resolution),
            (f"cusp_record({self.c_record}/2)", {"op": "cusp_record", "hn": f"{self.c_record}/2"},
             self.DEADLINE_S, lambda out: self.check_record(out, self.c_record)),
            (f"cusp_record(OR1 k={self.or1_k})", {"op": "cusp_record", "hn": or1["raw_hn"]},
             self.DEADLINE_S, lambda out: self.check_closed(out, or1, "OR1")),
            (f"resolve --hn {self.c_cli}/2 --json",
             {"op": "cli", "argv": ["resolve", "--hn", f"{self.c_cli}/2", "--json"]},
             self.DEADLINE_S, lambda out: oracles.check_resolve_json(self.c_cli, json.loads(out))),
            (f"cusp_record({self.HOSTILE}/2)", {"op": "cusp_record", "hn": f"{self.HOSTILE}/2"},
             self.HOSTILE_DEADLINE_S, lambda out: self.check_record(out, self.HOSTILE)),
        ]

    def check_g(self, out: str) -> list[str]:
        got = json.loads(out)
        want = oracles.g_closed_form(self.gamma)
        problems = [] if got["ok"] else [f"G({self.gamma}): audit failed"]
        runs = [oracles.multiplicity_runs(oracles.parse_pairs(c)) for c in got["cusps"]]
        sums = [sum(x) for x in zip(*(oracles.m_and_i(r) for r in runs))]
        for key, value in (("degree", got["degree"]), ("sum_M", got["sum_M"]),
                           ("sum_I", got["sum_I"])):
            if value != want[key]:
                problems.append(f"G({self.gamma}): {key} = {value}, expected {want[key]}")
        if sums != [want["sum_M"], want["sum_I"]]:
            problems.append(f"G({self.gamma}): cusps give (sum M, sum I) = {sums}")
        return problems

    def check_resolution(self, out: str) -> list[str]:
        got = json.loads(out)
        want = oracles.c2_closed_form(self.c_resolution)
        problems = self.check_closed(got, want, f"{self.c_resolution}/2", ("vertices", "discriminant"))
        if got["definite"] is not True:
            problems.append(f"{self.c_resolution}/2: resolution not negative definite")
        return problems

    def check_record(self, out: str, c: int) -> list[str]:
        return self.check_closed(out, oracles.c2_closed_form(c), f"{c}/2")

    @staticmethod
    def check_closed(out, want: dict, label: str, keys=("conductor", "M", "I")) -> list[str]:
        got = json.loads(out) if isinstance(out, str) else out
        return [f"{label}: {k} = {got[k]}, expected {want[k]}" for k in keys if got[k] != want[k]]

    def round(self, runner: Runner, index: int, traced: bool, self_check: bool) -> Round:
        rnd = Round()
        for k, (name, job, deadline, check) in enumerate(self.ops()):
            child = runner.job(dict(job, cpu=index % CPUS), deadline, traced, probe=(k == 0))
            problems = rnd.op(name, child, lambda: check(child.stdout))
            rnd.latencies.append(op_time(child, deadline))
            rnd.rss_mb = max(rnd.rss_mb, child.rss_mb)
            if job["op"] == "cli":
                rnd.stdout_bytes += len(child.stdout)
                if self_check and child.code == 0 and not problems:
                    obj = json.loads(child.stdout)
                    obj["multiplicities"] = obj["multiplicities"][:-1] + ["2"]
                    expect_caught("a mutated multiplicity",
                                  oracles.check_resolve_json(self.c_cli, obj))
            if child.trace:
                rnd.traces.append(child.trace)
        return rnd


WORKLOADS = {
    "enumerate-audit": EnumerateAudit,
    "cusp-invariants": CuspInvariants,
    "large-parameters": LargeParameters,
}


# ------------------------------------------------------------ entry point


def import_guard() -> dict:
    """Import cuspforge from this checkout's src and describe the run."""
    if not os.path.isfile(os.path.join(SRC, "cuspforge", "__init__.py")):
        raise BenchmarkError(f"no cuspforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import cuspforge
    where = os.path.realpath(cuspforge.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchmarkError(f"cuspforge imported from {where}, not from {SRC}")
    return {
        "cuspforge": where,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'none' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def median_latencies(rounds: list[Round], scale: float = 1.0, groups: int = 1) -> list[float]:
    """Each operation's typical time over the run's rounds, in round order.

    Round k belongs to group k mod ``groups`` (the CPU its children were
    pinned to); the typical time is the mean over the groups of the median
    within each, so that two CPUs running at different speeds do not leave
    the median in the gap between them.  Measured times are multiplied by
    ``scale``; a missed deadline is not.
    """
    out = []
    for samples in zip(*(r.latencies for r in rounds)):
        medians = []
        for g in range(groups):
            timed = [x if isinstance(x, Missed) else scale * x
                     for x in samples[g::groups] if x is not None]
            if timed:
                medians.append(statistics.median(timed))
        if medians:
            out.append(statistics.fmean(medians))
    return out


def layer_metrics(summary: dict, stdout_bytes: int, untraced_s: float, traced_s: float) -> dict:
    values: dict = {}
    for name, _ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = summary["calls"].get(stem, 0)
        elif kind == "self_s":
            values[name] = summary["self_ns"].get(stem, 0) / 1e9
        elif name in tracing.COUNTS:
            values[name] = summary["counts"].get(name, 0)
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.spans"] = summary["spans"]
    values["trace.untraced_cpu_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run(args) -> dict:
    info = import_guard()
    print("run " + json.dumps(dict(info, workload=args.workload, seed=args.seed)))
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    runner = Runner(tmp)
    speed = Speed()
    try:
        setup_s = None
        rounds: list[Round] = []
        if args.trace:
            for k in range(2 * TRACE_PAIRS):
                rounds.append(workload.round(runner, k // 2, traced=k % 2 == 1,
                                             self_check=k == 0))
        else:
            speed.sample()
            setup_s = measure_setup(runner)
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                speed.sample()
                rounds.append(workload.round(runner, len(rounds), traced=False,
                                             self_check=not rounds))
                last = time.perf_counter() - t0
                elapsed = time.perf_counter() - start
                if elapsed + last > args.seconds and (
                        len(rounds) >= MIN_ROUNDS or elapsed + last > RUN_LIMIT_S):
                    break
            speed.sample()
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))  # only if no other run is using it

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    wrong = [w for r in rounds for w in r.wrong]
    for line in failures + wrong:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{len(failures)} failed", file=sys.stderr)
    if args.trace:
        untraced, traced = rounds[0::2], rounds[1::2]
        first = traced[0]
        metrics = layer_metrics(tracing.merge(first.traces), first.stdout_bytes,
                                sum(median_latencies(untraced, groups=workload.groups)),
                                sum(median_latencies(traced, groups=workload.groups)))
    else:
        scale = speed.scale()
        print(f"reference loop {1000 * speed.median():.2f} ms (median of "
              f"{len(speed.samples)}), times scaled by {scale:.4f}", file=sys.stderr)
        times = median_latencies(rounds, scale, workload.groups)
        metrics = {
            "setup_s": {"value": scale * setup_s, "unit": "s"},
            "cpu_s": {"value": sum(times), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in rounds), "unit": "MB"},
            "op_p50_ms": {"value": 1000 * quantile(times, 0.50), "unit": "ms"},
            "op_p95_ms": {"value": 1000 * quantile(times, 0.95), "unit": "ms"},
        }
    return {"correct": not wrong, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
