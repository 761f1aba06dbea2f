"""elastopoint benchmark: run a workload for a fixed time and report.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each repetition is one fresh client process (child.py) that imports
`elastopoint.cli` and makes the workload's CLI calls in order: a closed
loop, one client, no concurrency, one BLAS thread. Repetitions start
until the next one would end after S seconds, with at least two, so
outputs are compared byte for byte across runs of the same seed. With
--trace 0 the run reports the end-to-end metrics as medians over
repetitions; with --trace 1 it alternates traced and untraced
repetitions and reports the per-layer metrics of the traced ones.
Every call's output is checked outside the timed interval. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--smoke runs the same calls at tiny levels in a few seconds; the
benchmark's own tests use it. See README.md for the workloads and the
metric glossary.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import machine
import tracer
from workloads import WORKLOADS, loads_file_text, make_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# one BLAS thread, at most nproc (2 on the reference box): with two
# threads per process, a second busy process on that box slowed the 2D
# study from 7 s to over 40 s
BLAS_THREADS = 1
# no repetition starts once the run would pass this, whatever --seconds
# says, so a run ends well within three minutes
HARD_LIMIT_S = 140.0
# clients that only import the package, for set-up samples
SETUP_ONLY_CLIENTS = 5
# the tracer must account for all but this share of the traced wall
UNATTRIBUTED_LIMIT = 0.05

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env(workdir):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = workdir
    return env


def _spawn(workdir, argv, trace, timeout):
    """Run one client; returns (result dict or None, spawn time, error)."""
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "calls": argv, "trace": trace}, fh)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path,
           result_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_child_env(workdir),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, spawned, "client timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return None, spawned, "client exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:])
    with open(result_path) as fh:
        return json.load(fh), spawned, None


def _check_call(call, result, workdir):
    """(failure message or None, sha256 of the output file or None)."""
    if result["rc"] != 0:
        return "exit code %s: %s" % (result["rc"],
                                     result["stderr"].strip()[-500:]), None
    data = digest = None
    if call.out is not None:
        try:
            with open(os.path.join(workdir, call.out), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return "output missing: %s" % exc, None
        digest = hashlib.sha256(data).hexdigest()
    try:
        return call.check(result["stdout"], data), digest
    except (ValueError, KeyError, IndexError, TypeError,
            UnicodeDecodeError) as exc:
        return "output unreadable: %r" % (exc,), digest


class Rep:
    """One client run: its timings, spans and per-call outcomes."""

    def __init__(self, traced, result, spawned, error, calls, workdir):
        self.traced = traced
        self.failures = [error] * len(calls)
        self.digests = [None] * len(calls)
        self.result = result
        if result is None:
            return
        self.setup_s = result["ready"] - spawned
        for i, (call, res) in enumerate(zip(calls, result["calls"])):
            self.failures[i], self.digests[i] = _check_call(call, res,
                                                            workdir)


def _run_rep(workdir, calls, inputs, traced, timeout):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for dim in (2, 3):
        with open(os.path.join(workdir, "loads%d.txt" % dim), "w") as fh:
            fh.write(loads_file_text(inputs, dim))
    result, spawned, error = _spawn(workdir, [c.argv for c in calls],
                                    traced, timeout)
    return Rep(traced, result, spawned, error, calls, workdir)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload for about `seconds`; returns the result dict."""
    inputs = make_inputs(seed)
    calls = WORKLOADS[name].calls(inputs, smoke)
    workdir = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    started = time.monotonic()
    try:
        # the first import in a checkout compiles bytecode: leave it out;
        # import-only clients add set-up samples at little cost
        imports = [_run_rep(workdir, [], inputs, False, HARD_LIMIT_S)
                   for _ in range(1 + SETUP_ONLY_CLIENTS)][1:]
        triad = None
        if trace:
            size = (8 << 20) if smoke else 4 * machine.llc_bytes()
            triad = (size, machine.triad_gbs(size))
        reps, longest = [], 0.0
        t0 = time.monotonic()
        while True:
            rep_start = time.monotonic()
            traced = bool(trace) and len(reps) % 2 == 0
            rep = _run_rep(workdir, calls, inputs, traced,
                           max(HARD_LIMIT_S - (rep_start - started), 1.0))
            reps.append(rep)
            now = time.monotonic()
            longest = max(longest, now - rep_start)
            if rep.result is None or now - started + longest > HARD_LIMIT_S:
                break
            if len(reps) >= 2 and now - t0 + longest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    return _summarise(name, seed, trace, calls, reps, imports, triad)


def _summarise(name, seed, trace, calls, reps, imports, triad):
    # outputs must repeat byte for byte across every run of this seed
    first = reps[0].digests
    for rep in reps[1:]:
        for i, digest in enumerate(rep.digests):
            if rep.failures[i] is None and digest != first[i]:
                rep.failures[i] = "output differs from the first run"
    failed = sum(f is not None for rep in reps for f in rep.failures)
    problems = ["rep %d call %d (%s): %s" % (k, i, calls[i].argv[0], f)
                for k, rep in enumerate(reps)
                for i, f in enumerate(rep.failures) if f is not None]
    ok = [r for r in reps if r.result is not None]
    plain = [r for r in ok if not r.traced]
    if trace:
        values, samples, notes = _layer_values(
            [r for r in ok if r.traced], plain, triad, problems)
        units = tracer.PER_LAYER_UNITS
    else:
        samples = {"wall_s": [r.result["wall_s"] for r in plain],
                   "setup_s": [r.setup_s for r in imports + plain
                               if r.result is not None],
                   "peak_rss_mb": [r.result["peak_rss_mb"] for r in plain]}
        values = {k: _median(v) for k, v in samples.items()}
        notes = ["%s samples: %s" % (k, " ".join("%.4g" % x for x in v))
                 for k, v in samples.items()]
        samples = {k: len(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
    return {"workload": name, "seed": seed, "trace": trace,
            "correct": not problems, "attempted": len(calls) * len(reps),
            "failed": failed, "samples": samples,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()},
            "problems": problems, "notes": notes}


def _layer_values(traced, plain, triad, problems):
    """Medians of the per-layer metrics over the traced repetitions."""
    per_rep = [tracer.layer_metrics(r.result["spans"], r.result["wall_s"])
               for r in traced]
    values = dict.fromkeys(tracer.PER_LAYER_UNITS, 0.0)
    if per_rep:
        values.update({k: _median([m[k] for m in per_rep])
                       for k in per_rep[0]})
    untraced_wall = _median([r.result["wall_s"] for r in plain])
    if untraced_wall:
        values["trace.overhead_frac"] = (values["trace.wall_s"]
                                         / untraced_wall - 1.0)
    values["machine.triad_gbs"] = triad[1]
    notes = ["triad arrays %.1f MB each, LLC %.1f MB"
             % (triad[0] / 1e6, machine.llc_bytes() / 1e6)]
    if not per_rep or not plain:
        problems.append("a trace run needs a traced and an untraced "
                        "repetition")
    else:
        notes.append("%d binding sites traced"
                     % traced[0].result["bindings"])
        wall = values["trace.wall_s"]
        if values["trace.unattributed_s"] > UNATTRIBUTED_LIMIT * wall:
            problems.append("unattributed %.3f s exceeds %.0f%% of the "
                            "traced wall %.3f s"
                            % (values["trace.unattributed_s"],
                               100 * UNATTRIBUTED_LIMIT, wall))
    return values, dict.fromkeys(values, len(per_rep)), notes


def _print_result(res):
    print("workload %s seed %d trace %d: %d calls attempted, %d failed, "
          "fail_frac %.4g"
          % (res["workload"], res["seed"], res["trace"], res["attempted"],
             res["failed"], res["failed"] / res["attempted"]))
    for key, m in res["metrics"].items():
        print("  %-28s %14.6g %-8s (median of %d)"
              % (key, m["value"], m["unit"], res["samples"][key]))
    for note in res["notes"]:
        print("  note: %s" % note)
    for problem in res["problems"]:
        print("  FAILED: %s" % problem)


def _final_line(res):
    return json.dumps({k: res[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny levels, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if not os.path.isfile(os.path.join(SRC, "elastopoint", "cli.py")):
        print("error: no elastopoint sources under %s" % SRC,
              file=sys.stderr)
        return 2
    if args.trace or args.all:
        print("machine: %s" % json.dumps(machine.record(BLAS_THREADS)))

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace,
                           args.smoke)
        _print_result(res)
        results.append(res)
    if args.all and not args.trace:
        print("%-16s %12s %12s %14s %10s" % ("workload", "wall_s [s]",
                                            "setup_s [s]", "peak_rss [MB]",
                                            "fail_frac"))
        for res in results:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print("%-16s %12.4f %12.4f %14.1f %10.4g"
                  % (res["workload"], m["wall_s"], m["setup_s"],
                     m["peak_rss_mb"],
                     res["failed"] / res["attempted"]))
    if args.all:
        print(json.dumps({r["workload"]: json.loads(_final_line(r))
                          for r in results}))
    else:
        print(_final_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
