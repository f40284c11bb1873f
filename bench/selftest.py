"""Self-tests of the benchmark harness itself.

    python3 bench/selftest.py

Checks that a corrupted known answer makes fail_ratio positive, that the
negative control's witness fields are each checked, that the command line
prints byte-identical output for the same argv (and that a difference is
caught), that a sampled pass leaves no timer armed, and that a traced
pass leaves no wrapper installed.  Exits 0 when every check passes.
"""

import sys

import run

SELFTESTS = []


def selftest(fn):
    SELFTESTS.append(fn)
    return fn


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def fail_ratio(passes):
    results = [r for _, rs in passes for r in rs]
    return sum(r[3] is not None for r in results) / len(results)


@selftest
def corrupted_answer_fails():
    ops, answers, _ = run.setup("poisson", 1)
    cheap = [op for op in ops if op.name == "skew_checks"]
    clean = [(False, run.run_pass(cheap, answers))]
    check(fail_ratio(clean) == 0, "the uncorrupted answers fail")
    skew = list(answers["skew_checks"])
    skew[0] = dict(skew[0], holds=False)
    answers["skew_checks"] = skew
    corrupted = [(False, run.run_pass(cheap, answers))]
    check(fail_ratio(corrupted) > 0, "a corrupted answer went unnoticed")


@selftest
def negative_control_witness_is_checked():
    import workloads
    ops, answers, _ = run.setup("poisson", 1)
    op = next(op for op in ops if op.name == "jacobi_negative_control")
    verdict = op.run()
    exp = answers[op.name]
    op.check(verdict, exp)
    wrong = {"triple": (0, 0, 1), "lambda_power": 0, "mu_power": -2,
             "coefficient": lambda ctx: 3 * ctx.u(2) ** 3}
    for key, value in wrong.items():
        bad = dict(exp, witness=dict(exp["witness"], **{key: value}))
        try:
            op.check(verdict, bad)
        except workloads.Mismatch:
            continue
        raise AssertionError("witness field %r is not checked" % key)


@selftest
def cli_is_deterministic():
    import workloads
    argv = ["chain", "--preset", "liouville-iv", "--direction", "left",
            "--steps", "2"]
    run.setup("hierarchy", 1)
    first, second = workloads.run_cli(argv), workloads.run_cli(argv)
    check(first.out.encode() == second.out.encode(), "stdout differs")
    check(first.code == second.code, "exit code differs")
    changed = first._replace(out=first.out + " ")
    passes = [(False, [("cli", 0.1, first, None, 0.01)]),
              (False, [("cli", 0.1, changed, None, 0.01)])]
    run.check_determinism(passes)
    check(passes[1][1][0][3] is not None, "a changed output went unnoticed")


@selftest
def sampler_leaves_no_timer():
    import signal
    import hostspeed
    ops, answers, _ = run.setup("poisson", 1)
    cheap = [op for op in ops if op.name == "skew_checks"]
    handler = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    (_, seconds, _, err, probe_s), = run.run_pass(cheap, answers, None, sampler)
    check(err is None, "the sampled op failed: %s" % err)
    check(len(sampler.samples) >= 2 * hostspeed.BRACKET, "too few probes")
    check(seconds > 0 and probe_s > 0, "no time measured")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer left armed")
    check(signal.getsignal(signal.SIGALRM) is handler, "handler left installed")


@selftest
def traced_pass_leaves_no_wrapper():
    from lenard import chains, field, solve
    import tracing
    ops, answers, _ = run.setup("ansatz", 1)
    originals = (field.DFun.__add__, chains.solve_operator_equation,
                 solve.solve_operator_equation)
    tracer = tracing.Tracer()
    tracer.start_pass()
    check(chains.solve_operator_equation is not originals[1], "alias not wrapped")
    results = run.run_pass(ops[:1], answers, tracer)
    tracer.finish_pass(sum(r[1] for r in results))
    check(not tracer.problems, tracer.problems)
    check(tracer.pass_metrics[0]["solve.calls"] == 6, "solves not counted")
    check((field.DFun.__add__, chains.solve_operator_equation,
           solve.solve_operator_equation) == originals, "wrappers left behind")


def main():
    failed = 0
    for fn in SELFTESTS:
        try:
            fn()
            print("ok   %s" % fn.__name__)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (fn.__name__, e))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
