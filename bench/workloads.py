"""Task lists and exact oracles for the four benchmark workloads.

Every list is a pure function of the workload seed, so one seed always
gives the same tasks.  A task is a plain dict: ``argv`` for a command line
call (run through ``liebranch.cli.main`` with output captured) or
``heavy`` for the criterion-6 pipeline through the library API.  The
expected answers travel inside the task under ``expect``; the child
process checks them after the timed interval.
"""

import random

GROUPS = ("G2", "F4", "E6", "E7", "E8")

# The acceptance classification: spherical (subgroup, node) pairs per group.
SPHERICAL = {
    "G2": [("A2", 1), ("A2", 2)],
    "F4": [("B4", 1), ("B4", 2), ("B4", 3), ("B4", 4)],
    "E6": [
        ("A5xA1", 1), ("A5xA1", 6),
        ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 5), ("F4", 6),
        ("C4", 1), ("C4", 6),
        ("D5xT1", 1), ("D5xT1", 2), ("D5xT1", 3), ("D5xT1", 5), ("D5xT1", 6),
    ],
    "E7": [("A7", 7), ("E6xT1", 1), ("E6xT1", 2), ("E6xT1", 7), ("D6xA1", 7)],
    "E8": [],
}

# Seed sweeps per classify pass.  One sweep of all five groups costs about
# 1.5 s, so a pass is a few seconds and a run holds several passes.
CLASSIFY_SEEDS = 2

# Criterion-5 degrees: every rule is verified at k = 1..KMAX[group].
KMAX = {"G2": 5, "F4": 3, "E6": 2, "E7": 2}

# Rule triples of the packaged rules.txt, (group, subgroup, node).
RULE_TRIPLES = [
    ("E6", "A5xA1", 1), ("E6", "A5xA1", 6), ("E6", "C4", 1), ("E6", "C4", 6),
    ("E6", "D5xT1", 1), ("E6", "D5xT1", 2), ("E6", "D5xT1", 3),
    ("E6", "D5xT1", 5), ("E6", "D5xT1", 6),
    ("E6", "F4", 1), ("E6", "F4", 2), ("E6", "F4", 3), ("E6", "F4", 5),
    ("E6", "F4", 6),
    ("E7", "A7", 7), ("E7", "D6xA1", 7), ("E7", "E6xT1", 1),
    ("E7", "E6xT1", 2), ("E7", "E6xT1", 7),
    ("F4", "B4", 1), ("F4", "B4", 2), ("F4", "B4", 3), ("F4", "B4", 4),
    ("G2", "A2", 1), ("G2", "A2", 2),
]

# Criterion-6 cases: (group, subgroup, highest weight, classes of
# multiplicity 2, (variant class, its multiplicity)).  A class is
# (subgroup weight, torus charge).  The variant is a nearby class (off by
# one node, coefficient or charge) pinned at its actual multiplicity.
# Left out so that a run stays within its time budget (about 5 s each):
# E7>D6xA1 4w1, whose restriction streams the same 162k weights as E7>A7,
# and the decompose-only E8>D8 and E8>E7xA1 at 3w8.
HEAVY_CASES = [
    ("E6", "A5xA1", (0, 4, 0, 0, 0, 0),
     [((0, 0, 2, 0, 0, 2), 0)], (((0, 0, 2, 0, 0, 3), 0), 0)),
    ("E7", "A7", (4, 0, 0, 0, 0, 0, 0),
     [((0, 0, 0, 2, 0, 0, 0), 0)], (((0, 0, 0, 1, 0, 0, 0), 0), 1)),
    ("E7", "A1xF4", (0, 0, 0, 0, 0, 0, 4),
     [((4, 0, 0, 0, 1), 0), ((4, 0, 0, 0, 2), 0)], (((4, 0, 0, 0, 1), 0), 2)),
    ("E7", "E6xT1", (0, 0, 0, 0, 0, 2, 0),
     [((1, 0, 0, 0, 0, 1), 0)], (((1, 0, 0, 0, 0, 1), 6), 1)),
]

# Racah pairs: (group, subgroup, ambient weight, candidate targets).  The
# seed picks one target per pair.  The candidates are the classes of the
# restriction plus one class that does not occur; the sum visits every
# W_H term whichever target is picked, so the cost does not depend on it.
# E8>A8 w8 (|W_H| = 362880, about 8 s) is left out for the time budget;
# E8>E6xA2 (|W_H| = 311040) stresses the same sum.
RACAH_PAIRS = [
    ("E8", "E6xA2", "w8", ["l7+l8", "l6+l7", "l2", "l1+l8", "l2+l7"]),
    ("E8", "A7xA1", "w8", ["2l8", "l6+l8", "l4", "l2+l8", "l1+l7", "l4+l8"]),
    ("E7", "A7", "2w7", ["0", "2l6", "l4", "l2+l6", "2l2", "l1+l7"]),
]

WORKLOADS = ("classify", "verify", "heavy", "racah")

# Ambient groups whose Chevalley basis each workload builds during set-up.
AMBIENTS = {
    "classify": GROUPS,
    "verify": ("G2", "F4", "E6", "E7"),
    "heavy": ("E6", "E7"),
    "racah": ("E7", "E8"),
}


def _classify(rng):
    seeds = [rng.randrange(1 << 31) for _ in range(CLASSIFY_SEEDS)]
    return [
        {
            "argv": ["classify", g, "--seed", str(s), "--format", "json"],
            "expect": {"classify": [list(p) for p in SPHERICAL[g]]},
        }
        for s in seeds
        for g in GROUPS
    ]


def _verify(rng):
    triples = list(RULE_TRIPLES)
    rng.shuffle(triples)
    return [
        {
            "argv": ["branch", g, h, str(node), str(KMAX[g]), "--verify",
                     "--format", "json"],
            "expect": {"verify": KMAX[g]},
        }
        for g, h, node in triples
    ]


def _heavy(rng):
    cases = list(HEAVY_CASES)
    rng.shuffle(cases)
    tasks = []
    for g, h, lam, mult2, variant in cases:
        queries = [list(c) for c in mult2] + [list(variant[0])]
        tasks.append({
            "heavy": {"group": g, "subgroup": h, "weight": list(lam),
                      "queries": queries},
            "expect": {
                "mult2": [list(c) for c in mult2],
                "variant": [list(variant[0]), variant[1]],
            },
        })
    return tasks


def _racah(rng):
    tasks = []
    for g, h, lam, targets in RACAH_PAIRS:
        target = rng.choice(targets)
        tasks.append({
            "argv": ["mult", g, h, lam, target, "--format", "json"],
            "expect": {"racah": [g, h, lam, target]},
        })
    return tasks


def tasks_for(workload, seed, data_dir=None):
    """The fixed task list of one workload for one seed, ids from 0."""
    make = {"classify": _classify, "verify": _verify, "heavy": _heavy,
            "racah": _racah}[workload]
    tasks = make(random.Random(f"{workload}:{seed}"))
    for i, task in enumerate(tasks):
        task["id"] = i
        if data_dir is not None and "argv" in task:
            task["argv"] += ["--data", data_dir]
    return tasks
