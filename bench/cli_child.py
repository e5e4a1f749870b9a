"""One CLI request in a fresh interpreter, for the traced ``cli`` run.

Reads ``{"argv": [...], "mode": "plain" | "traced", "request": id}`` on stdin
and prints one JSON line: the time of ``import antiring.cli`` and of
``antiring.cli.run(argv)`` and, in traced mode, the spans, per-name self
times and observer counts of that call.  The parent process (run.py) sets the
working directory and environment of the real request.
"""

import json
import sys
import time


def main():
    spec = json.loads(sys.stdin.read())
    t = time.perf_counter()
    import antiring.cli
    out = {"import_s": time.perf_counter() - t}
    tracer = None
    if spec["mode"] == "traced":
        import tracer as tr
        tracer = tr.Tracer()
        out["absent"] = tracer.install()
        tracer.request = spec["request"]
    t = time.perf_counter()
    outcome = antiring.cli.run(spec["argv"])
    out["run_s"] = time.perf_counter() - t
    out["exit_code"] = outcome.exit_code
    if tracer is not None:
        tracer.uninstall()
        out["counters"] = tracer.finish()
        out["totals"] = tracer.self_times()
        out["nil"] = tracer.nilpotency_matmuls()
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
