"""Fit-and-score benchmark for sigsurv.

Run from the repository root:

    python3 bench/run.py --workload fit_lowrank --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

One workload per process, so ``peak_rss_mb`` belongs to that workload;
``all`` runs each in a fresh child process and prints a table. On
fit_lowrank ``fit_s`` times build_context, run_em, linearize and
run_cavi, and ``predict_s``/``eval_s`` time the library calls behind
``sigsurv predict``/``sigsurv eval`` on the gate's 100-subject test
set; on score_cohort the three time the ``sigsurv fit``, ``predict``
and ``eval`` commands, run in-process. Each time is the median of its
samples in the run, scaled to a reference host speed: a fixed numpy
and Python kernel is timed between the operations, and every time is
multiplied by the kernel's nominal over its mean measured time (see
``workloads.HostSpeed``); the raw samples are printed as well.
``ok_frac`` is the share of operations that neither raised nor failed
a check. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, measured by wrapping the
library's functions, and writes every span to
``.bench_out/trace-<workload>-seed<seed>.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The BLAS pool is pinned to one thread before numpy loads: one thread is
within ``nproc`` on every machine, and it fixes the order of BLAS
reductions, so results do not depend on the core count.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("SIGSURV_SEED", None)  # the CLI would read it as a default

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_lowrank", "score_cohort")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_one(args) -> int:
    from workloads import FITS, run_cohort, run_fit

    if args.workload in FITS:
        outcome, e2e, layer, tracer = run_fit(
            args.workload, args.seed, args.seconds, args.trace)
    else:
        work = ROOT / ".bench_out" / f"work-{args.workload}-{os.getpid()}"
        outcome, e2e, layer, tracer = run_cohort(
            args.seed, args.seconds, args.trace, str(work))
    e2e["ok_frac"] = 1.0 - outcome.failed / max(outcome.attempted, 1)

    spec = _spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {}
    for m in listed:
        # a traced layer that the workload never entered reads 0
        value = values.get(m["name"], 0.0 if args.trace else None)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if tracer is not None:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": env, "metrics": metrics,
                       "span_fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
        print(f"wrote {len(tracer.spans)} spans to {out.relative_to(ROOT)}")

    complete = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "correct": outcome.failed == 0 and complete,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(int(args.trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']!s:>22} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sigsurv" / "__init__.py").is_file():
        print(f"no sigsurv sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
