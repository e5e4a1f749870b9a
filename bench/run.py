"""The antiring benchmark: seeded workloads against the public API, every answer checked.

    python3 bench/run.py --workload {nilpotent,invertible,counting,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of a
timed run, with ``--trace 1`` the per-layer metrics of a traced run.  A run
record (environment, input properties, sample counts, first failures) goes to
stderr and to ``.bench_out/`` in the checkout, with the spans of a traced run.

Each run is one closed loop with one client in a fresh interpreter: whole
rounds of requests (see workloads.py) run until the requests' own time adds
up to ``--seconds`` and at least MIN_REQUESTS were issued.  Input generation
and answer checking happen between requests and are not timed.  See
README.md for the metrics and why each workload exists.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REQUESTS = 100  # per run, however slow the program; every round has at least 16
SETUP_REPEATS = 7
#: The host alternates between fast and slow phases lasting about a second, so
#: set-up time is sampled throughout the run (between rounds) rather than in
#: one burst, and the median is taken over all samples.
SETUP_FIRST, SETUP_EVERY_S = 3, 1.0
WATCHDOG_S = 170  # a run that has not finished by then exits nonzero, printing no result
#: Rounds in the fixed request list of a traced run (about 5-10 s untraced at the seed).
TRACE_ROUNDS = {"nilpotent": 3, "invertible": 10, "counting": 12, "cli": 2}


class Watchdog(BaseException):
    """Raised by SIGALRM; a BaseException so no request handler swallows it."""


def _alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def calibrate():
    """A fixed stdlib-only loop; its time marks slow phases of the host."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def environment():
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha}


def wall(argv, deadline, **kwargs):
    t = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=remaining(deadline), **kwargs)
    return time.perf_counter() - t, proc


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())




# --- executing requests ------------------------------------------------------------


class Tally:
    """Latencies, failures and input properties of the requests of one pass."""

    def __init__(self):
        self.latencies = []
        self.reasons = []
        self.props = dict.fromkeys(("entire", "dense", "multi_atom", "negative"), 0)
        self.count_requests = self.warm = 0
        self.max_n = 0

    def execute(self, req, tracer=None, rid=0):
        if req.count_n:
            self.count_requests += 1
            self.warm += req.count_n <= self.max_n
            self.max_n = max(self.max_n, req.count_n)
        for key in self.props:
            self.props[key] += bool(getattr(req, key))
        span = tracer.begin_request(rid, req.kind) if tracer else None
        t = time.perf_counter()
        try:
            ok, value = True, req.call()
        except Exception as exc:  # a wrong exception is a failed request, not a crashed run
            ok, value = False, exc
        dt = time.perf_counter() - t
        if span is not None:
            tracer.end_request(span)
            dt = span[2] - span[1]
        try:
            reason = req.check(ok, value)
        except Exception as exc:
            reason = f"answer could not be checked: {type(exc).__name__}: {exc}"
        self.latencies.append(dt)
        if reason is not None:
            self.reasons.append(f"{req.kind}: {reason}")

    @property
    def attempted(self):
        return len(self.latencies)

    def input_shares(self):
        total = max(1, self.attempted)
        shares = {f"input.{k}_share": v / total for k, v in self.props.items() if k != "negative"}
        shares["input.planted_negative_share"] = self.props["negative"] / total
        shares["input.warm_n_share"] = self.warm / self.count_requests if self.count_requests else 0.0
        return shares


def fixed_requests(workload, seed, workdir=None):
    import workloads
    items = []
    for r in range(TRACE_ROUNDS[workload]):
        items += workloads.make_round(workload, seed, r, workdir=workdir, src=str(SRC),
                                      timeout=lambda: WATCHDOG_S)
    return items


def setup_sample(deadline):
    """Wall time of a fresh interpreter that imports antiring and exits."""
    from workloads import child_env
    dt, proc = wall([sys.executable, "-c", "import antiring"], deadline, cwd=ROOT, env=child_env(str(SRC)))
    if proc.returncode != 0:
        raise RuntimeError(f"import antiring failed: {proc.stderr.strip()}")
    return dt


def timed_run(workload, seed, seconds, deadline, workdir):
    """The closed loop of a timed run; returns (tally, latencies per round, setup samples)."""
    import workloads
    tally = Tally()
    setup = [setup_sample(deadline) for _ in range(SETUP_FIRST)]
    last_sample = time.monotonic()
    measured, rounds = 0.0, []
    while measured < seconds or tally.attempted < MIN_REQUESTS:
        items = workloads.make_round(workload, seed, len(rounds), workdir=workdir, src=str(SRC),
                                     timeout=lambda: remaining(deadline))
        first = tally.attempted
        for item in items:
            tally.execute(item[0] if workload == "cli" else item)
            if time.monotonic() - last_sample >= SETUP_EVERY_S:
                setup.append(setup_sample(deadline))
                last_sample = time.monotonic()
        rounds.append(tally.latencies[first:])
        measured = sum(tally.latencies)
    return tally, rounds, setup


def percentile_ms(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


# --- traced runs ------------------------------------------------------------------


def child_pass(mode, workload, seed):
    """One pass over the fixed request list in this (fresh) interpreter."""
    import tracer as tr
    items = fixed_requests(workload, seed)
    tally = Tally()
    record = {}
    if mode == "traced":
        t = tr.Tracer()
        record["absent"] = t.install()
        for rid, req in enumerate(items):
            tally.execute(req, tracer=t, rid=rid)
        t.uninstall()
        counters = t.finish()
        record["metrics"] = tr.layer_metrics(t.self_times(), counters, *t.nilpotency_matmuls())
        record["observer_errors"] = t.observer_errors
        with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(dict(t.dump(), workload=workload, seed=seed,
                           requests=[req.kind for req in items]), fh)
    elif mode == "counting":
        counts, restore = tr.count_semiring_ops([s for req in items for s in req.semirings])
        for req in items:
            tally.execute(req)
        restore()
        record["metrics"] = {"semirings.add.calls": counts["add"], "semirings.mul.calls": counts["mul"]}
    else:
        # Overhead: each request runs once to warm caches, then untraced and
        # traced in alternating order, so slow phases of the host and cold
        # caches fall on both sides alike.
        t = tr.Tracer()
        t.install()
        t.enable(False)
        plain, traced = Tally(), Tally()
        for rid, req in enumerate(items):
            tally.execute(req)
            for on in ((True, False) if rid % 2 else (False, True)):
                t.enable(on)
                (traced if on else plain).execute(req, tracer=t if on else None, rid=rid)
            t.enable(False)
        t.uninstall()
        tally.reasons += plain.reasons + traced.reasons
        record["overhead_share"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    record.update(attempted=tally.attempted, reasons=tally.reasons, shares=tally.input_shares())
    return record


def traced_inprocess(workload, seed, deadline):
    records = []
    for mode in ("traced", "counting", "overhead"):
        _, proc = wall([sys.executable, str(Path(__file__)), "--child", mode, "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "1"], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass failed: {proc.stderr.strip()[-2000:]}")
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    traced, counting, overhead = records
    metrics = dict(traced["metrics"])
    metrics.update(counting["metrics"])
    metrics.update(traced["shares"])
    # the cli layer is measured by the cli workload only
    metrics.update(dict.fromkeys(("cli.interpreter_s", "cli.import_s", "cli.run_s", "cli.startup_share"), 0.0))
    metrics["trace.overhead_share"] = overhead["overhead_share"]
    attempted = traced["attempted"]
    reasons = [r for rec in records for r in rec["reasons"]]
    failed = max(len(rec["reasons"]) for rec in records)
    extra = {"absent": traced["absent"], "observer_errors": traced["observer_errors"]}
    return metrics, attempted, failed, reasons, extra


def traced_cli(seed, deadline, workdir):
    """Per request: the real subprocess, then the same argv in an untraced and
    a traced child that time ``import antiring`` and ``antiring.cli.run``."""
    import tracer as tr
    interpreter_s = statistics.median(
        wall([sys.executable, "-c", "pass"], deadline)[0] for _ in range(SETUP_REPEATS))
    items = fixed_requests("cli", seed, workdir)
    tally = Tally()
    walls, plain, traced, spans = [], [], [], []
    counters, totals = {}, {}
    nil = [0, 0]
    absent = None
    for rid, (req, call) in enumerate(items):
        tally.execute(req)
        walls.append(tally.latencies[-1])
        for mode, sink in (("plain", plain), ("traced", traced)):
            spec = json.dumps({"argv": call.argv, "mode": mode, "request": rid})
            _, proc = wall([sys.executable, str(BENCH / "cli_child.py")], deadline, input=spec,
                           cwd=call.cwd, env=call.env(str(SRC)))
            if proc.returncode != 0:
                raise RuntimeError(f"cli child failed: {proc.stderr.strip()[-2000:]}")
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            sink.append(rec)
        rec = traced[-1]
        absent = rec["absent"]
        spans += rec["spans"]
        for k, v in rec["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for name, (s, c) in rec["totals"].items():
            s0, c0 = totals.get(name, (0.0, 0))
            totals[name] = (s0 + s, c0 + c)
        nil[0] += rec["nil"][0]
        nil[1] += rec["nil"][1]
    metrics = tr.layer_metrics(totals, counters, *nil)
    metrics.update(tally.input_shares())
    run_s = [rec["run_s"] for rec in plain]
    metrics.update({
        "semirings.add.calls": 0, "semirings.mul.calls": 0,
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": statistics.median(rec["import_s"] for rec in plain),
        "cli.run_s": statistics.median(run_s),
        "cli.startup_share": 1.0 - sum(run_s) / sum(walls),
        "trace.overhead_share": sum(rec["run_s"] for rec in traced) / sum(run_s) - 1.0,
    })
    with open(OUT / f"trace-cli-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": "cli", "seed": seed, "absent": absent, "spans": spans,
                   "counters": counters, "requests": [req.kind for req, _ in items]}, fh)
    return metrics, tally.attempted, len(tally.reasons), tally.reasons, {"absent": absent}


# --- entry point -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("nilpotent", "invertible", "counting", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("traced", "counting", "overhead"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "antiring" / "__init__.py").is_file():
        print(f"error: no antiring package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import antiring
    if Path(antiring.__file__).resolve().parent != (SRC / "antiring").resolve():
        print(f"error: imported antiring from {antiring.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    deadline = time.monotonic() + WATCHDOG_S
    try:
        if args.child:
            print(json.dumps(child_pass(args.child, args.workload, args.seed)))
            return 0
        return run(args, deadline)
    except Watchdog as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


def run(args, deadline):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib_before = calibrate()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    with tempfile.TemporaryDirectory(prefix="files-", dir=str(OUT)) as workdir:
        if args.trace:
            if args.workload == "cli":
                metrics, attempted, failed, reasons, extra = traced_cli(args.seed, deadline, workdir)
            else:
                metrics, attempted, failed, reasons, extra = traced_inprocess(
                    args.workload, args.seed, deadline)
            record.update(extra)
        else:
            tally, rounds, setup = timed_run(args.workload, args.seed, args.seconds, deadline, workdir)
            lat = tally.latencies
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            # Each time metric is taken per round and the median over rounds is
            # reported: rounds have the same shape, and the median is not moved
            # by slow phases of the host that cover fewer than half the rounds.
            metrics = {
                "ops_per_s": statistics.median(len(rl) / sum(rl) for rl in rounds),
                "latency_p50_ms": statistics.median(statistics.median(rl) for rl in rounds) * 1000.0,
                "latency_p90_ms": statistics.median(percentile_ms(rl, 90) for rl in rounds),
                "ok_share": 1.0 - len(tally.reasons) / len(lat),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            attempted, failed, reasons = tally.attempted, len(tally.reasons), tally.reasons
            record.update(rounds=len(rounds), measured_s=sum(lat), setup_samples=setup,
                          input=tally.input_shares())
    calib_after = calibrate()
    if args.trace:
        metrics["env.calib_s"] = (calib_before + calib_after) / 2
    record.update(calib_s=[calib_before, calib_after], samples=attempted, failed=failed,
                  first_failures=reasons[:10], metrics=metrics)
    with open(OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
