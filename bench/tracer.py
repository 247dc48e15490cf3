"""Span tracing of liebranch from outside the package.

``Tracer.install`` replaces public functions and methods of the package
with wrappers that record spans and counters; nothing under ``src`` is
edited.  A module-level function is replaced at every module that holds
it under some name (``branching.decompose`` and ``cli.multiplicity_of``
are imported names), and a method on its class.  Spans stay in memory as
(name, start_ns, end_ns, parent span index, task id) and are written
once, by ``write_spans``, when the traced process ends.
"""

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name): functions wrapped at every import site
FUNCTION_SPANS = [
    ("embeddings", "load_catalog", "embeddings.load_catalog"),
    ("chevalley", "chevalley_basis", "chevalley.basis_build"),
    ("branching", "load_rules", "branching.load_rules"),
    ("branching", "verify_rule", "branching.verify"),
    ("characters", "dominant_character", "characters.freudenthal"),
    ("characters", "restrict_collapsed", "characters.restrict"),
    ("characters", "decompose", "characters.decompose"),
    ("characters", "multiplicity_of", "characters.racah"),
    ("sphericity", "classify_pair", "sphericity.pair"),
    ("sphericity", "generic_translate_test", "sphericity.translate"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("chevalley", "ChevalleyBasis", "bracket", "chevalley.bracket"),
    ("chevalley", "ChevalleyBasis", "exp_ad_apply", "chevalley.exp_ad_apply"),
    ("linalg", "SpanQ", "add", "linalg.spanq_add"),
    ("linalg", "SpanMod", "add", "linalg.spanmod_add"),
    ("sphericity", "SphericitySetup", "__init__", "sphericity.setup"),
    ("sphericity", "SphericitySetup", "find_witness", "sphericity.orbit"),
    ("branching", "Rule", "expand", "branching.expand"),
]

# Hot methods that get a call counter only: a span per call would cost
# more than the call.  (module, class, method, counter)
METHOD_COUNTS = [
    ("rootsys", "RootSystem", "dominant_signed", "rootsys.dominant_signed_calls"),
]

# Generator methods whose yielded items are counted.
GENERATOR_COUNTS = [
    ("rootsys", "RootSystem", "weyl_orbit", "rootsys.weyl_orbit_weights"),
    ("rootsys", "ProductSystem", "weyl_orbit_signed", "characters.racah_terms"),
]

# Per-layer metrics in report order: (metric, unit).
LAYER_METRICS = [
    ("embeddings.load_catalog_s", "s"),
    ("chevalley.basis_build_s", "s"),
    ("chevalley.bracket_calls", "count"),
    ("chevalley.bracket_s", "s"),
    ("chevalley.exp_ad_apply_calls", "count"),
    ("chevalley.exp_ad_apply_s", "s"),
    ("linalg.spanq_add_calls", "count"),
    ("linalg.spanq_add_s", "s"),
    ("linalg.spanmod_add_calls", "count"),
    ("linalg.spanmod_add_s", "s"),
    ("linalg.rank_updates", "count"),
    ("sphericity.pairs", "count"),
    ("sphericity.pairs_pruned", "count"),
    ("sphericity.setup_s", "s"),
    ("sphericity.orbit_s", "s"),
    ("sphericity.orbit_trials", "count"),
    ("sphericity.translate_s", "s"),
    ("sphericity.translate_trials", "count"),
    ("sphericity.trial_hit_ratio", "ratio"),
    ("sphericity.sampled_rows", "count"),
    ("characters.freudenthal_calls", "count"),
    ("characters.freudenthal_distinct", "count"),
    ("characters.freudenthal_s", "s"),
    ("characters.restrict_calls", "count"),
    ("characters.restrict_s", "s"),
    ("characters.decompose_self_s", "s"),
    ("characters.peel_steps", "count"),
    ("characters.racah_self_s", "s"),
    ("characters.racah_terms", "count"),
    ("rootsys.dominant_signed_calls", "count"),
    ("rootsys.weyl_orbit_weights", "count"),
    ("branching.load_rules_s", "s"),
    ("branching.verify_self_s", "s"),
    ("branching.expand_s", "s"),
    ("branching.classes_expanded", "count"),
    ("cli.main_self_s", "s"),
]

# Self time of a span name, reported under a metric name.
SELF_TIME = {
    "embeddings.load_catalog_s": "embeddings.load_catalog",
    "chevalley.basis_build_s": "chevalley.basis_build",
    "chevalley.bracket_s": "chevalley.bracket",
    "chevalley.exp_ad_apply_s": "chevalley.exp_ad_apply",
    "linalg.spanq_add_s": "linalg.spanq_add",
    "linalg.spanmod_add_s": "linalg.spanmod_add",
    "sphericity.setup_s": "sphericity.setup",
    "sphericity.orbit_s": "sphericity.orbit",
    "sphericity.translate_s": "sphericity.translate",
    "characters.freudenthal_s": "characters.freudenthal",
    "characters.restrict_s": "characters.restrict",
    "characters.decompose_self_s": "characters.decompose",
    "characters.racah_self_s": "characters.racah",
    "branching.load_rules_s": "branching.load_rules",
    "branching.verify_self_s": "branching.verify",
    "branching.expand_s": "branching.expand",
    "cli.main_self_s": "cli.main",
}

# Number of spans of a name, reported under a metric name.
CALLS = {
    "chevalley.bracket_calls": "chevalley.bracket",
    "chevalley.exp_ad_apply_calls": "chevalley.exp_ad_apply",
    "linalg.spanq_add_calls": "linalg.spanq_add",
    "linalg.spanmod_add_calls": "linalg.spanmod_add",
    "sphericity.pairs": "sphericity.pair",
    "characters.freudenthal_calls": "characters.freudenthal",
    "characters.restrict_calls": "characters.restrict",
}


def _count_result(tracer, name, args, result):
    """Counters read off a call's arguments and result."""
    c = tracer.counts
    if name in ("linalg.spanq_add", "linalg.spanmod_add"):
        c["linalg.rank_updates"] += bool(result)
    elif name == "sphericity.pair":
        c["sphericity.pairs_pruned"] += result.method == "dimension"
        c["sphericity.sampled_rows"] += result.certainty == "sampled"
    elif name == "sphericity.orbit":
        point, t = result
        if args[0].n_dim:
            c["sphericity.orbit_trials"] += t + 1 if point is not None else t
            c["sphericity.hits"] += point is not None
    elif name == "sphericity.translate":
        ok, t = result
        c["sphericity.translate_trials"] += t + 1 if ok else t
        c["sphericity.hits"] += ok
    elif name == "characters.freudenthal":
        t = args[0]
        tracer.distinct.add((str(getattr(t, "type", t)), tuple(args[1])))
    elif name == "characters.decompose":
        c["characters.peel_steps"] += len(result)
    elif name == "branching.expand":
        c["branching.classes_expanded"] += len(result)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.distinct = set()
        self.task = -1
        self.enabled = True

    def _span(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.task)
            _count_result(tracer, name, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_gen(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[key] += n

        return wrapper

    def install(self):
        """Wrap the package in place; call once, after importing it."""
        pkg = [m for n, m in list(sys.modules.items())
               if n == "liebranch" or n.startswith("liebranch.")]
        for mod, attr, name in FUNCTION_SPANS:
            orig = getattr(sys.modules[f"liebranch.{mod}"], attr)
            wrapped = self._span(name, orig)
            sites = 0
            for m in pkg:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        sites += 1
            if not sites:
                raise RuntimeError(f"no import site for liebranch.{mod}.{attr}")
        for table, make in ((METHOD_SPANS, self._span),
                            (METHOD_COUNTS, self._counted),
                            (GENERATOR_COUNTS, self._counted_gen)):
            for mod, cls_name, meth, name in table:
                cls = getattr(sys.modules[f"liebranch.{mod}"], cls_name)
                setattr(cls, meth, make(name, getattr(cls, meth)))

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = Counter()
        calls = Counter()
        for (name, start, end, _, _), kids in zip(self.spans, covered):
            self_ns[name] += end - start - kids
            calls[name] += 1
        out = {}
        for metric, _unit in LAYER_METRICS:
            if metric in SELF_TIME:
                out[metric] = self_ns[SELF_TIME[metric]] / 1e9
            elif metric in CALLS:
                out[metric] = calls[CALLS[metric]]
            else:
                out[metric] = self.counts[metric]
        out["characters.freudenthal_distinct"] = len(self.distinct)
        trials = (self.counts["sphericity.orbit_trials"]
                  + self.counts["sphericity.translate_trials"])
        out["sphericity.trial_hit_ratio"] = (
            self.counts["sphericity.hits"] / trials if trials else 0.0)
        return out

    def write_spans(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttask\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
