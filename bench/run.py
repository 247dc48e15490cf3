"""liebranch benchmark: four exact-output workloads, one closed loop.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Each pass is a fresh interpreter (``bench/child.py``) that sets up, runs
the workload's fixed task list one task after another, and checks every
output against an exact oracle.  Passes run one at a time until
``--seconds`` have elapsed (at least one pass); extra set-up-only
interpreters bring the set-up samples of a run to ``MIN_SETUPS``.
Every reported number is the median over the run's samples, and every
time is scaled to a reference host speed measured during the interval
itself (see ``speed`` and README.md).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate between
untraced and traced, and it holds the per-layer metrics of the traced
passes plus ``trace.overhead_ratio``.  ``--dry-run`` lists the tasks with
their input sizes and measures nothing.  Files go to ``.bench_out``.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import AMBIENTS, WORKLOADS, tasks_for  # noqa: E402

MIN_SETUPS = 5
# Reference host speed: one probe loop (bench/child.py) per millisecond.
# A 2.1 GHz Xeon core running Python 3.11 does one in about 0.9 ms when
# nothing else competes for it.
PROBE_REF_S = 0.001
RUN_LIMIT_S = 170  # a run must end within 180 s
OUT_DIR = ".bench_out"

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIEBRANCH_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root, job, deadline):
    """One pass in a fresh interpreter; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=root, env=child_env(root), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']} pass exceeded the run time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited with code {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(root, args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def speed(probes):
    """Mean host speed over an interval, from the probes taken during it.

    Probes are evenly spaced in time, so the work done in the interval is
    its length times the mean of the probes' speeds; a time scaled by this
    factor is the time the work would take at the reference speed.
    """
    return PROBE_REF_S * statistics.fmean(1 / p for p in probes)


def measure(root, args, job, deadline):
    """Untraced passes until the time is up; medians of the samples."""
    passes, setups = [], []
    # warm-up: the first interpreter of a run loads the files cold
    run_child(root, dict(job, setup_only=True), deadline)
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        r = run_child(root, job, deadline)
        passes.append(r)
        setups.append(r["setup_s"] * speed(r["setup_probes"]))
    while len(setups) < MIN_SETUPS:
        r = run_child(root, dict(job, setup_only=True), deadline)
        setups.append(r["setup_s"] * speed(r["setup_probes"]))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] * speed(r["probes"]) for r in passes),
        "cpu_s": statistics.median(r["cpu_s"] * speed(r["probes"]) for r in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return passes, setups, metrics


def layer_value(r, name, unit):
    """A per-layer metric of one traced pass; times corrected for host speed."""
    v = r["layers"][name]
    # spans fall in set-up and in the task loop alike
    return v * speed(r["setup_probes"] + r["probes"]) if unit == "s" else v


def measure_traced(root, args, job, deadline):
    """Untraced and traced passes in turn; per-layer medians and overhead."""
    plain, traced = [], []
    run_child(root, dict(job, setup_only=True), deadline)  # warm-up, as in measure
    t0 = time.monotonic()
    while not traced or time.monotonic() - t0 < args.seconds:
        plain.append(run_child(root, job, deadline))
        spans = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pass{len(traced)}.tsv"
        )
        traced.append(run_child(root, dict(job, trace=True, spans_path=spans), deadline))
    metrics = {
        name: {"value": statistics.median(layer_value(r, name, unit) for r in traced),
               "unit": unit}
        for name, unit in LAYER_METRICS
    }
    ratio = (statistics.median(r["wall_s"] * speed(r["probes"]) for r in traced)
             / statistics.median(r["wall_s"] * speed(r["probes"]) for r in plain) - 1)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return plain + traced, [], metrics


def dry_run(root, args, tasks):
    """Print each task with the input sizes that drive its cost."""
    sys.path.insert(0, os.path.join(root, "src"))
    from liebranch import load_catalog
    from liebranch.characters import dominant_weights, module_dimension
    from liebranch.rootsys import ProductSystem, parse_weight, root_system

    catalog = load_catalog(args.data)

    def sizes(g, h, lam):
        emb = catalog.get(g, h)
        rs = root_system(emb.ambient)
        orbit = sum(rs.orbit_size(mu) for mu in dominant_weights(rs, lam))
        return (f"dim V={module_dimension(emb.ambient, lam)} "
                f"orbit_weights={orbit} |W_H|={ProductSystem(emb.spec).weyl_order()}")

    for task in tasks:
        if "heavy" in task:
            spec = task["heavy"]
            g, h, lam = spec["group"], spec["subgroup"], tuple(spec["weight"])
            info = sizes(g, h, lam) + f" queries={len(spec['queries'])}"
            label = f"heavy {g} {h} {lam}"
        else:
            argv = task["argv"]
            label = " ".join(argv)
            if argv[0] == "classify":
                g = argv[1]
                entries = catalog.entries(g)
                rank = root_system(entries[0].ambient).rank
                info = f"pairs={len(entries) * rank} subgroups={len(entries)}"
            elif argv[0] == "branch":
                g, h, node, k = argv[1], argv[2], int(argv[3]), int(argv[4])
                rs = root_system(catalog.get(g, h).ambient)
                lam = tuple(k if j == node - 1 else 0 for j in range(rs.rank))
                info = sizes(g, h, lam) + f" (top degree k={k})"
            else:
                g, h = argv[1], argv[2]
                rank = root_system(catalog.get(g, h).ambient).rank
                lam, _ = parse_weight(argv[3], rank, "w")
                info = sizes(g, h, lam)
        print(f"task {task['id']:3d}  {label}\n           {info}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", default=None,
                        help="liebranch data directory passed to every task")
    parser.add_argument("--dry-run", action="store_true",
                        help="list the tasks and their input sizes, measure nothing")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liebranch", "__init__.py")):
        print("error: run from the repository root (src/liebranch not found)",
              file=sys.stderr)
        return 2
    data = os.path.abspath(args.data) if args.data else None
    tasks = tasks_for(args.workload, args.seed, data)
    meta = metadata(root, args)
    print("# meta " + json.dumps(meta, sort_keys=True))
    if args.dry_run:
        dry_run(root, args, tasks)
        return 0

    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    job = {"workload": args.workload, "tasks": tasks, "ambients": AMBIENTS[args.workload],
           "data": data, "trace": False, "setup_only": False, "spans_path": None}
    measure_fn = measure_traced if args.trace else measure
    try:
        passes, setups, metrics = measure_fn(root, args, job, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for f in r["failures"][:3]:
            print(f"FAILED task {f['id']}: {f['problem']}", file=sys.stderr)
    record = dict(meta, passes=passes, setup_samples=setups, metrics=metrics,
                  attempted=attempted, failed=failed)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {args.workload}: {len(passes)} passes of {len(tasks)} tasks, "
          f"{len(setups)} set-up samples")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6f} {m['unit']}")
    print(f"{'error_rate':34s} {failed / attempted:14.6f} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
