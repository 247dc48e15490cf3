"""One benchmark pass in a fresh interpreter.

Reads a job from standard input (workload, task list, ambient groups,
data directory, trace flag), times the set-up, runs the tasks one after
another, checks every output against its oracle after the timed interval
and prints one JSON line with the measurements.  ``bench/run.py`` starts
it with ``src`` on ``PYTHONPATH``; it is not meant to be run by hand.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback


# Iterations of the probe loop: about 1 ms on a 2.1 GHz Xeon core running
# Python 3.11 in a quiet spell; one probe every PROBE_EVERY_S seconds.
PROBE_LOOPS = 5_000
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Samples the host's speed while the measured code runs.

    The host alternates between fast and slow spells, some shorter than a
    task, that slow all Python code alike.  A wall-clock timer signal runs
    a fixed loop of tuple, dict and int work every ``PROBE_EVERY_S``; its
    times tell ``bench/run.py`` how fast the host ran over the interval,
    and the time spent in probes is taken out of the interval.
    """

    def __init__(self):
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0

    def _probe(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        d = {}
        for i in range(PROBE_LOOPS):
            k = (i & 255, i % 7)
            d[k] = d.get(k, 0) + i
        w = time.perf_counter() - w0
        self.samples.append(w)
        self.wall += w
        self.cpu += time.process_time() - c0

    def __enter__(self):
        # one probe before the interval, so that even a short one has a
        # sample; its time is not part of the interval
        self._probe(None, None)
        self.wall = self.cpu = 0.0
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_cli(cli, task):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(task["argv"])
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_heavy(lb, catalog, spec):
    """Criterion-6 pipeline: one restriction feeds every later query."""
    ch = lb.characters
    emb = catalog.get(spec["group"], spec["subgroup"])
    lam = tuple(spec["weight"])
    collapsed = ch.restrict_collapsed(emb, lam)
    dec = ch.decompose(emb, lam, collapsed=collapsed)
    mults = [
        ch.multiplicity_of(emb, lam, tuple(w), charge=q, collapsed=collapsed)
        for w, q in spec["queries"]
    ]
    return {"emb": emb, "lam": lam, "dec": dec, "mults": mults}


def _class(c):
    return (tuple(c[0]), c[1])


def check_cli_output(lb, catalog, expect, out):
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()[:300]}"
    payload = json.loads(out["stdout"])
    if "classify" in expect:
        want = {tuple(p) for p in expect["classify"]}
        rows = payload["rows"]
        got = {(r["subgroup"], r["node"]) for r in rows if r["verdict"] == "spherical"}
        if got != want:
            return f"spherical set {sorted(got)} != {sorted(want)}"
        if payload["spherical_count"] != len(want):
            return f"spherical_count {payload['spherical_count']} != {len(want)}"
        if payload["duality_consistent"] is not True:
            return "duality inconsistent"
        if any(r["verdict"] == "undecided" for r in rows):
            return "undecided row"
        inexact = [r for r in rows if r["verdict"] == "spherical" and r["certainty"] != "exact"]
        if inexact:
            return f"{len(inexact)} spherical rows not exact"
    elif "verify" in expect:
        checks = payload["verify"]
        if [c["k"] for c in checks] != list(range(1, expect["verify"] + 1)):
            return f"verified degrees {[c['k'] for c in checks]}"
        bad = [c["k"] for c in checks if not (c["direct"] or c["dual"])]
        if bad:
            return f"no reading matches at k={bad}"
    elif "racah" in expect:
        g, h, lam_text, target_text = expect["racah"]
        emb = catalog.get(g, h)
        rank = lb.rootsys.root_system(emb.ambient).rank
        lam, _ = lb.rootsys.parse_weight(lam_text, rank, "w")
        target, charge = lb.rootsys.parse_weight(target_text, emb.spec.rank_ss, "l")
        want = lb.characters.decompose(emb, lam).get((target, charge or 0), 0)
        if payload["multiplicity"] != want:
            return f"multiplicity {payload['multiplicity']} != decompose {want}"
    return None


def check_heavy(lb, expect, out):
    dec, emb, lam = out["dec"], out["emb"], out["lam"]
    mult2 = [_class(c) for c in expect["mult2"]]
    wanted = [(c, 2) for c in mult2]
    wanted.append((_class(expect["variant"][0]), expect["variant"][1]))
    high = sorted(k for k, v in dec.items() if v >= 2)
    if high != sorted(mult2):
        return f"classes of multiplicity >= 2: {high} != {sorted(mult2)}"
    for (cls, m), got in zip(wanted, out["mults"]):
        if dec.get(cls, 0) != m or got != m:
            return f"{cls}: decompose {dec.get(cls, 0)}, multiplicity_of {got}, want {m}"
    ps = lb.rootsys.ProductSystem(emb.spec)
    total = sum(m * ps.weyl_dimension(w) for (w, _), m in dec.items())
    dim = lb.characters.module_dimension(emb.ambient, lam)
    if total != dim:
        return f"sum of m*dim {total} != dim V {dim}"
    return None


def main():
    job = json.load(sys.stdin)
    data = job["data"]

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import liebranch
        import liebranch.cli

        lb = liebranch
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        catalog = lb.embeddings.load_catalog(data)
        lb.branching.load_rules(data)
        for g in job["ambients"]:
            lb.chevalley.chevalley_basis(lb.rootsys.SimpleType(g[0], int(g[1:])))
        setup_s = time.perf_counter() - t0 - probe.wall
    setup = {"setup_s": setup_s, "setup_probes": probe.samples}
    if job["setup_only"]:
        print(json.dumps(setup))
        return 0

    tasks = job["tasks"]
    outputs, task_s = [], []
    with SpeedProbe() as probe:
        w0, c0 = time.perf_counter(), time.process_time()
        for task in tasks:
            if tracer:
                tracer.task = task["id"]
            s0 = time.perf_counter()
            try:
                if "argv" in task:
                    outputs.append((run_cli(lb.cli, task), None))
                else:
                    outputs.append((run_heavy(lb, catalog, task["heavy"]), None))
            except Exception:
                outputs.append((None, traceback.format_exc(limit=4)))
            task_s.append(time.perf_counter() - s0)
        wall_s = time.perf_counter() - w0 - probe.wall
        cpu_s = time.process_time() - c0 - probe.cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer:
        layers = tracer.metrics()
        tracer.enabled = False  # oracle work below is not the workload's
    failures = []
    for task, (out, err) in zip(tasks, outputs):
        problem = err
        if problem is None:
            try:
                if "argv" in task:
                    problem = check_cli_output(lb, catalog, task["expect"], out)
                else:
                    problem = check_heavy(lb, task["expect"], out)
            except Exception:
                problem = "oracle check raised:\n" + traceback.format_exc(limit=4)
        if problem:
            failures.append({"id": task["id"], "problem": problem})
    if tracer and job["spans_path"]:
        tracer.write_spans(job["spans_path"])
    print(json.dumps(dict(
        setup,
        probes=probe.samples,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(tasks),
        failed=len(failures),
        failures=failures,
        task_s=task_s,
        layers=layers,
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
