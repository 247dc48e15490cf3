"""Checks that the benchmark's own checks are live.

Run from the repository root:

    python3 bench/selftest.py

Negative control: the packaged data is copied to ``.bench_out/negctl``,
one ``rule`` is replaced by its known-bad ``rulevariant``, and the
``verify`` workload run on that copy must report failed tasks.  The
untouched copy must pass, so the failure comes from the swapped rule.

Traced self-test: every workload is run with ``--trace 1`` and every
per-layer metric that the workload is meant to exercise must be
non-zero.  A wrapper that stops firing (say, because an import site was
renamed) shows up here as a zero.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
NEGCTL = os.path.join(".bench_out", "negctl")

# The rule replaced by its known-bad printed variant.
SWAPPED = ("F4", "B4", "4")

EVERY = ["embeddings.load_catalog_s", "chevalley.basis_build_s",
         "branching.load_rules_s", "trace.overhead_ratio"]
_SPHERICITY = [
    "chevalley.bracket_calls", "chevalley.bracket_s",
    "chevalley.exp_ad_apply_calls", "chevalley.exp_ad_apply_s",
    "linalg.spanq_add_calls", "linalg.spanq_add_s", "linalg.spanmod_add_calls",
    "linalg.spanmod_add_s", "linalg.rank_updates",
    "sphericity.pairs", "sphericity.pairs_pruned", "sphericity.setup_s",
    "sphericity.orbit_s", "sphericity.orbit_trials", "sphericity.translate_s",
    "sphericity.translate_trials", "sphericity.trial_hit_ratio",
    "sphericity.sampled_rows",
]
_ROOTSYS = ["rootsys.dominant_signed_calls", "rootsys.weyl_orbit_weights"]
_RACAH = ["characters.racah_self_s", "characters.racah_terms"]
EXERCISED = {
    "classify": _SPHERICITY + ["cli.main_self_s"],
    "verify": [
        "characters.freudenthal_calls", "characters.freudenthal_distinct",
        "characters.freudenthal_s", "characters.restrict_calls",
        "characters.restrict_s", "characters.decompose_self_s",
        "characters.peel_steps", "branching.verify_self_s",
        "branching.expand_s", "branching.classes_expanded", "cli.main_self_s",
    ] + _ROOTSYS,
    "heavy": [
        "characters.freudenthal_s", "characters.restrict_calls",
        "characters.restrict_s", "characters.decompose_self_s",
        "characters.peel_steps",
    ] + _RACAH + _ROOTSYS,
    "racah": _RACAH + _ROOTSYS + ["cli.main_self_s"],
}


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seed", "1",
         "--seconds", "1", *args],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_data(swap):
    src = os.path.join("src", "liebranch", "data")
    shutil.rmtree(NEGCTL, ignore_errors=True)
    shutil.copytree(src, NEGCTL)
    if not swap:
        return
    path = os.path.join(NEGCTL, "rules.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = " ".join(SWAPPED) + " :"
    variant = next(ln for ln in lines
                   if ln.startswith("rulevariant ") and ln.split(None, 2)[2].startswith(head))
    out = []
    for ln in lines:
        if ln == variant:
            continue
        if ln.startswith("rule " + head):
            ln = "rule " + variant.split(None, 2)[2]
        out.append(ln)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def negative_control():
    copy_data(swap=False)
    good = run_bench("--workload", "verify", "--trace", "0", "--data", NEGCTL)
    assert good["correct"] and good["failed"] == 0, good
    copy_data(swap=True)
    bad = run_bench("--workload", "verify", "--trace", "0", "--data", NEGCTL)
    rate = bad["failed"] / bad["attempted"]
    assert not bad["correct"] and rate > 0, bad
    print(f"negative control: untouched copy error_rate 0; "
          f"rule {' '.join(SWAPPED)} swapped error_rate {rate:.4f}  PASS")


def traced_selftest():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    for workload, names in EXERCISED.items():
        res = run_bench("--workload", workload, "--trace", "1")
        metrics = res["metrics"]
        assert res["correct"], (workload, res["failed"])
        assert sorted(metrics) == sorted(declared), (workload, sorted(metrics))
        zero = [n for n in EVERY + names if not metrics[n]["value"]]
        assert not zero, (workload, zero)
        print(f"traced {workload}: {len(EVERY + names)} exercised metrics non-zero  PASS")


def main():
    negative_control()
    traced_selftest()


if __name__ == "__main__":
    main()
