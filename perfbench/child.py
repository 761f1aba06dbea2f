"""One benchmark client: import the CLI, then make a workload's calls.

    python3 child.py SPEC.json RESULT.json

runs in a fresh process whose working directory holds the workload's
input files. SPEC gives the package source directory, the CLI argument
lists and whether to trace. RESULT receives the monotonic time at
which `import elastopoint.cli` returned, the wall time from the first
call to the last return, the peak RSS, each call's exit code and
captured output, and the spans when traced.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, reported below
            traceback.print_exc(file=err)
            rc = -1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import elastopoint.cli
    ready = time.monotonic()

    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(elastopoint.cli.__file__).startswith(src):
        print("elastopoint was not imported from %s" % src, file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    t0 = time.perf_counter()
    for i, argv in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.call = i
        calls.append(_run_call(elastopoint.cli.main, argv))
    wall = time.perf_counter() - t0

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "wall_s": wall,
              "peak_rss_mb": rss_kib * 1024 / 1e6, "calls": calls,
              "spans": tracer.spans if tracer else None,
              "bindings": tracer.bindings if tracer else 0}
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
