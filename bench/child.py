"""One solve in a fresh interpreter: import dsyk.cli, run the CLI, report.

    python3 child.py <root> <request.json>

The request names the result file, the output directory, the CLI argument
lists to run in order, the parent's clock reading just before it started
this process, and whether to trace.  The result holds setup_s (process
start to ``import dsyk.cli`` done), solve_s (the CLI calls; argv_s per
call), exit codes, peak RSS and CPU time, plus per-layer metrics when
traced.

Only the standard library is imported before dsyk, so setup_s is the
cost a user pays to start the CLI.
"""

import json
import os
import resource
import sys
import time


def main(root, request_path):
    with open(request_path) as f:
        req = json.load(f)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dsyk.cli
    setup_s = time.monotonic() - req["spawn_clock"]
    if not os.path.abspath(dsyk.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"dsyk imported from {dsyk.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    rec = missing = None
    if req["trace"]:
        import spans
        rec = spans.SpanRecorder()
        missing = spans.install(rec)

    codes = []
    argv_s = []
    for argv in req["argvs"]:
        if rec is not None:
            i = rec.open(spans.ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            codes.append(dsyk.cli.main(["--out", req["out_dir"]] + argv))
        finally:
            argv_s.append(time.perf_counter() - t0)
            if rec is not None:
                rec.close(i)
        if codes[-1] != 0:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "solve_s": sum(argv_s),
        "argv_s": argv_s,
        "exit_codes": codes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if rec is not None:
        result["layers"] = spans.solve_metrics(rec, missing)
        result["missing_targets"] = sorted(missing)
        rec.dump(req["spans_path"])
    if req["environment"]:
        import envinfo
        result["environment"] = envinfo.runtime()
    with open(req["result_path"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
