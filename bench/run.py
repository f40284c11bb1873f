"""lenard benchmark runner: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload poisson --seed 1 --seconds 25 --trace 0

A closed loop with one client: each op starts when the previous verdict
has returned.  The runner repeats passes over the workload's op list for
--seconds seconds (at least three passes), checks every result against its
known answer, and prints one line per metric followed by a JSON object as
the last line of stdout.  Op times are scaled to a reference host speed
by the probes of hostspeed.py, which takes a shared host's speed drift
out of them.  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics instead, as
plain wall times (see bench/README.md).
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_PASSES = 3
SETUP_PROBES = 9


def setup(workload, seed):
    """Import lenard from this checkout and build ops, answers and operands."""
    sys.path.insert(0, SRC)
    import lenard
    if not os.path.abspath(lenard.__file__).startswith(SRC + os.sep):
        raise ImportError("lenard imported from %s, not from %s"
                          % (lenard.__file__, SRC))
    import workloads
    return workloads.build(workload, seed)


def measure_setup(workload, seed):
    """Median time from process start to the first op being ready.

    Each of SETUP_PROBES fresh processes is timed and scaled to the
    reference host's speed by the probes a Sampler takes while this
    process waits for it (see hostspeed.py); returns the (scaled, wall)
    medians."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--probe"]
    sampler = hostspeed.Sampler()
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        sampler.start()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            _, probe_s = sampler.stop()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed with code %s"
                               % proc.returncode)
        wall.append(dt)
        scaled.append(hostspeed.scaled(dt, probe_s))
    return statistics.median(scaled), statistics.median(wall)


def fresh_heap():
    """Start an op the way a command-line run starts: on an empty heap.

    Collects garbage and empties the Jacobi engine's module-level partials
    cache, whose entries are keyed by object identity and so are never hit
    by a later op; otherwise they pile up across ops, and full collections
    over them land on whichever op happens to trigger one."""
    from lenard import jacobi
    getattr(jacobi, "_PARTIALS_CACHE", {}).clear()
    gc.collect()


def run_pass(ops, answers, tracer=None, sampler=None):
    """One pass over the op list.

    Returns [(name, seconds, result, error or None, probe seconds)].  With
    a sampler, seconds leave out the sampler's handler and probe seconds is
    the mean probe time seen during the op; without one, seconds are the
    op's wall time and probe seconds is None."""
    out = []
    for op in ops:
        fresh_heap()
        if tracer is not None:
            tracer.begin_op(op.name)
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        try:
            result, err = op.run(), None
        except Exception as e:  # any raise is a failed op
            result, err = None, e
        t1 = time.perf_counter()
        handler_s, probe_s = sampler.stop() if sampler is not None else (0, None)
        if tracer is not None:
            tracer.end_op(t0, t1)
        if err is None:
            try:
                op.check(result, answers[op.name])
            except Exception as e:  # a wrong answer is a failed op
                err = e
        out.append((op.name, t1 - t0 - handler_s, result, err, probe_s))
    return out


def check_determinism(passes):
    """Command-line ops must print byte-identical output on every pass."""
    first = {}
    for _, results in passes:
        for i, (name, dt, result, err, probe_s) in enumerate(results):
            if err is not None or not hasattr(result, "argv"):
                continue
            key = (result.code, result.out)
            if first.setdefault(name, key) != key:
                results[i] = (name, dt, result,
                              AssertionError("output differs between runs"),
                              probe_s)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(ops, answers, seconds, tracer=None):
    """Passes until `seconds` have elapsed; odd passes traced if a tracer.

    Untraced runs sample host speed during every op; traced runs sample it
    in no pass, so that traced and untraced passes compare wall times."""
    sampler = hostspeed.Sampler() if tracer is None else None
    passes = []
    rss_mb = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.start_pass()
        results = run_pass(ops, answers, tracer if traced else None, sampler)
        if traced:
            tracer.finish_pass(sum(r[1] for r in results))
        passes.append((traced, results))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_determinism(passes)
    return passes, rss_mb


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("poisson", "ansatz", "hierarchy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, print 'ready' and exit (set-up timing)")
    args = ap.parse_args(argv)

    try:
        ops, answers, operands = setup(args.workload, args.seed)
    except ImportError as e:
        print("cannot load lenard: %s" % e, file=sys.stderr)
        return 2
    if args.probe:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
        print("wall setup_s %.6f s" % setup_wall_s)
    passes, rss_mb = measure(ops, answers, args.seconds, tracer)

    print("workload %s seed %d operands %s passes %d"
          % (args.workload, args.seed, operands, len(passes)))
    attempted = sum(len(results) for _, results in passes)
    failed = 0
    for traced, results in passes:
        for name, dt, _, err, _ in results:
            if err is not None:
                failed += 1
                print("FAIL %s%s: %s: %s" % (name, " (traced)" if traced else "",
                                             type(err).__name__, err))
    # each op's median over the untraced passes, as measured (wall) and, in
    # an untraced run, at reference speed; a pass is the sum of its ops
    untraced = [results for traced, results in passes if not traced]
    wall_s = [statistics.median(r[i][1] for r in untraced)
              for i in range(len(ops))]
    for op, w in zip(ops, wall_s):
        print("op %-30s wall %9.4f s" % (op.name, w))
    print("wall pass_s %.6f s, wall verdict_geomean_s %.6f s"
          % (sum(wall_s), geomean(wall_s)))
    correct = failed == 0
    if tracer is None:
        op_s = [statistics.median(hostspeed.scaled(r[i][1], r[i][4])
                                  for r in untraced) for i in range(len(ops))]
        for op, s in zip(ops, op_s):
            print("op %-30s scaled %9.4f s" % (op.name, s))
        probe_s = statistics.median(r[4] for rs in untraced for r in rs)
        print("probe median %.6f s, reference %.6f s"
              % (probe_s, hostspeed.REFERENCE_S))
        pass_s = sum(op_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "verdict_geomean_s": (geomean(op_s), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print("metric %-34s %12.6f %s" % ("fail_ratio", failed / attempted, "1"))
    else:
        metrics, problems = tracer.metrics(sum(wall_s))
        for p in problems:
            print("TRACE %s" % p)
        correct = correct and not problems
        path = tracer.write_spans(os.path.join(HERE, "out"), args.workload,
                                  args.seed)
        print("spans written to %s" % os.path.relpath(path))
    for name, (value, unit) in metrics.items():
        print("metric %-34s %12.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
