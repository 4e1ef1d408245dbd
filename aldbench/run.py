"""aldual benchmark: one workload, one seed, one closed-loop timed pass.

    python3 aldbench/run.py --workload relax-mixed --seed 3 --seconds 38 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The pass has a single caller and no threads: each operation starts when the
previous one returns.  Instances come from ``--seed`` only.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The pass cycles through the operation list (a round is every operation of
the workload once) for ``--seconds``, and for at least one whole round.
``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
set-ups), ``ops_per_s`` (over the whole pass), ``op_p50_ms`` and
``op_p90_ms`` (over every operation of the pass), ``success_rate`` and
``peak_rss_mb``.  ``--trace 1`` wraps every layer's
public functions, sets up once, runs the same pass and reports the
per-layer metrics of ``tracing.Tracer.layer_metrics`` over the first round,
so its counts repeat exactly for a seed.  Spans go to
``aldbench/out/spans-<workload>.jsonl``.

``--capture-goldens`` records the CLI outputs of the default seed in
``aldbench/goldens.json``; do it only when a change alters CLI output on
purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("relax-mixed", "certify", "cli")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-goldens", action="store_true")
    return p.parse_args(argv)


def run_pass(wl, seconds: float, tracer=None):
    """Closed loop over ``wl.ops``, cycling from the start, for ``seconds``.

    The pass completes at least one whole round (every operation once, so
    the traced figures of round 1 are always there), then stops at the
    first operation boundary after ``seconds``.  Instances are drawn round
    robin over the strata, so a pass that ends mid-round still holds the
    workload's mix.

    Returns (latencies, statuses, first result per key, keys whose repeats
    differed, wall seconds of the pass).
    """
    from workloads import Refusal

    latencies: list[float] = []
    statuses: list[tuple[tuple, str]] = []
    latest: dict = {}
    first: dict = {}
    unstable: set = set()
    n = len(wl.ops)
    start = perf_counter()
    k = 0
    while k < n or perf_counter() - start < seconds:
        op = wl.ops[k % n]
        if tracer is not None:
            tracer.op = k
        k += 1
        t0 = perf_counter()
        try:
            value = op.run(latest)
            status = "ok"
        except op.refusals as exc:
            value, status = Refusal(type(exc).__name__, str(exc)), "refused"
        except Exception as exc:  # any other exception is a failed operation
            value, status = None, f"error: {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        statuses.append((op.key, status))
        if value is None:
            latest.pop(op.key, None)
            continue
        latest[op.key] = value
        if op.key not in first:
            first[op.key] = value
        elif first[op.key] != value:
            unstable.add(op.key)
    return latencies, statuses, first, unstable, perf_counter() - start


def setup_problems(wl) -> list[str]:
    """Facts from set-up that a solver-free scan can confirm."""
    out = []
    for case, plain in zip(wl.cases, wl.plains):
        z = plain.lattice_z_ip()
        if z is not None and z != case.z_ip:
            out.append(f"{case.label}: solve_ip {case.z_ip} != lattice {z}")
    return out


def capture_goldens(root: str, work_dir: str) -> None:
    import workloads

    wl = workloads.setup("cli", workloads.DEFAULT_SEED, work_dir, root)
    outputs = {}
    for op in wl.ops:
        code, out, _err = op.run({})
        outputs[workloads.golden_key(op.key)] = {"exit": code, "stdout": out}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} golden outputs to {workloads.GOLDENS}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aldual", "__init__.py")):
        print(f"no aldual package under {ROOT}/src: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.capture_goldens:
            capture_goldens(ROOT, work_dir)
            return 0
        return bench(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def bench(args, work_dir: str) -> int:
    import aldual
    from aldual import ald, cli, convexsolve, exactrho, instance, numkit, penalty

    import workloads
    from tracing import Tracer

    tracer = None
    setup_times = []
    if args.trace:
        tracer = Tracer()
        tracer.install({"aldual": aldual, "numkit": numkit,
                        "convexsolve": convexsolve, "penalty": penalty,
                        "instance": instance, "ald": ald,
                        "exactrho": exactrho, "cli": cli})
        wl = workloads.setup(args.workload, args.seed, work_dir, ROOT)
    else:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl = workloads.setup(args.workload, args.seed, work_dir, ROOT)
            setup_times.append(perf_counter() - t0)

    print(f"workload {wl.name} seed {wl.seed}: {len(wl.cases)} instances, "
          f"{len(wl.ops)} ops per round; strata:")
    for stratum in workloads.STRATA[wl.name]:
        print("  " + stratum.describe())
    for case in wl.cases:
        print("  " + case.describe())

    latencies, statuses, first, unstable, wall = run_pass(wl, args.seconds, tracer)
    if tracer:
        tracer.uninstall()

    try:
        problems = wl.check(wl, first)
    except Exception as exc:  # a result the checks cannot read is wrong
        problems = {key: f"check raised {exc!r}" for key in first}
    for key in unstable:
        problems.setdefault(key, "repeats of the operation gave different results")
    global_problems = setup_problems(wl)
    attempted = len(statuses)
    failed = sum(1 for key, status in statuses
                 if status.startswith("error") or key in problems)
    refused = sum(1 for _, status in statuses if status == "refused")
    errors = [f"{key}: {status}" for key, status in statuses if status.startswith("error")]
    for line in (errors[:5] + [f"{k}: {v}" for k, v in list(problems.items())[:10]]
                 + global_problems):
        print("  FAIL " + line)

    lat_ms = sorted(x * 1e3 for x in latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    beyond = sum(1 for x in lat_ms if x > p90)
    print(f"pass: {attempted / len(wl.ops):.2f} rounds in {wall:.2f} s, "
          f"{attempted} ops, {beyond} beyond p90, {refused} typed refusals, "
          f"{failed} failed")

    if tracer:
        metrics = tracer.layer_metrics(0, len(wl.ops), len(wl.cases))
        metrics["instance.generate.s"] = tracer.setup_seconds("instance.generate")
        metrics["trace.ops_per_s"] = attempted / wall
        units = {}
        for name in metrics:
            units[name] = ("1/s" if name.endswith("ops_per_s")
                           else "s" if name.endswith("_s") or name.endswith(".s")
                           else "bits" if name.endswith("max_bits")
                           else "ratio" if name.endswith("ratio")
                           else "count")
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl")
        tracer.write(spans_path)
        print(f"trace: {len(tracer.spans)} spans written to {spans_path}; "
              f"per-layer figures cover round 1 ({len(wl.ops)} ops)")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / wall,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "success_rate": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "success_rate": "ratio", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0 and not global_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
