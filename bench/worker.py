"""One fresh benchmark process: a library workload repeat, or a traced CLI call.

    python bench/worker.py --workload kernel-eval --seed 3 --out r.json [--trace]
    python bench/worker.py --workload kernel-eval --setup-only --out r.json
    python bench/worker.py --cli --out r.json [--trace] -- density --measure mu1 ...

It needs critkernels on the path (bench/run.py sets PYTHONPATH to src).
A library repeat writes its set-up and timed-phase (every operation
computed and checked) times, each with its time.perf_counter() start
and end, each operation's verdict and, when traced, the span summary.  A CLI call runs the critkernels command
in the current directory, exits with its status, and writes the import
time and span summary.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_ops(ops) -> list:
    verdicts = []
    for name, thunk, check in ops:
        try:
            bad = check(thunk())
        except Exception as exc:  # an operation that raises has failed
            bad = f"{type(exc).__name__}: {exc}"
        verdicts.append([name, bad])
    return verdicts


def library(args) -> dict:
    if args.workload == "kernel-eval":
        workloads.kernel_eval_setup()
    else:
        params = workloads.quadrature_setup()
    t_setup = time.perf_counter()
    setup = (_T0, t_setup, t_setup - _T0)
    if args.setup_only:
        return {"setup": setup}
    inp = workloads.inputs(args.workload, args.seed)
    ref = workloads.load_reference(args.workload)
    t1 = time.perf_counter()
    if args.workload == "kernel-eval":
        ops = workloads.kernel_eval_ops(inp, ref)
    else:
        ops = workloads.quadrature_ops(inp, ref, params)
    verdicts = _run_ops(ops)
    t2 = time.perf_counter()
    return {"setup": setup, "timed": (t1, t2, t2 - t1), "ops": verdicts}


def cli(args) -> tuple[dict, int]:
    t1 = time.perf_counter()
    from critkernels import cli as ck_cli
    import_s = time.perf_counter() - t1
    try:
        ck_cli.main.main(args=args.cli_args, prog_name="critkernels")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return {"import_s": import_s}, code


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("kernel-eval", "quadrature"))
    ap.add_argument("--cli", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("cli_args", nargs="*")
    args = ap.parse_args()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    code = 0
    if args.cli:
        result, code = cli(args)
    else:
        result = library(args)
    if tracer:
        result["trace"] = tracer.summary()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
