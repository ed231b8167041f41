"""Traced runs: spans around the library's public functions, from outside.

``Tracer.install`` replaces each listed function in every ``tameorders``
module namespace that holds it, so calls made inside the library are caught
as well as the benchmark's own calls.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out once the run ends.  A
listed function that does not exist is reported as absent, not as an error.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> functions timed in it; "Poset.__init__" names a method
TARGETS = {
    "textfmt": ("parse_poset", "poset_json", "format_poset"),
    "poset": ("build_poset", "Poset.__init__", "restrict"),
    "embedding": ("embeds_r22", "verify_embedding", "find_embedding"),
    "tame": ("reduce", "canonical_embedding", "tame_rank", "is_tame",
             "minimal_rank_bruteforce", "check_claim_inequalities"),
    "templates": ("r_lambda", "inflate", "realize"),
    "enumeration": ("all_labeled_posets", "check_poset", "verify_proposition",
                    "verify_sampled"),
    "cli": ("main",),
}
GENERATORS = {"enumeration.all_labeled_posets"}  # one span per item yielded

# counts taken at the same boundaries, reported beside the span metrics
COUNTS = (
    "embedding.embeds_r22.calls_per_op",
    "embedding.verify_embedding.pairs",
    "embedding.find_embedding.nodes",
    "tame.reduce.class_ratio",
    "templates.r_lambda.cache_hits",
    "templates.inflate.kept_ratio",
)


def metric_name(module: str, func: str) -> str:
    return f"{module}.{func.replace('.__', '_').strip('_')}"


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_per_op"):
        return "calls/op"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            base = metric_name(module, func)
            names += [f"{base}.self_s", f"{base}.calls"]
    return names + list(COUNTS) + ["trace.overhead_ratio"]


def self_times(spans, op_scale=None) -> dict[str, list]:
    """Per span name: [self seconds, span count].

    Self time is the span's duration minus the part of it covered by its
    child spans (the union of their intervals, clipped to the parent).
    ``op_scale[op]``, when given, multiplies the self time of each span of
    that op (the run's normalisation factor).
    """
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name][0] += ((end - start) - covered) * (1.0 if op_scale is None else op_scale[op])
        out[name][1] += 1
    return dict(out)


class Tracer:
    """Patches the listed functions while installed and records their spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # id of the current op; op + 1 ops have begun
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, name, original)
        self._plan = self._resolve()
        r_lambda = getattr(getattr(package, "templates", None), "r_lambda", None)
        self._cache_info = getattr(r_lambda, "cache_info", None)  # kept: install hides it
        self._hits_before = 0

    # ------------------------------------------------------------ patching

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _resolve(self):
        """(owner, attribute, original, metric base) for every function that exists."""
        plan = []
        for module, funcs in TARGETS.items():
            mod = getattr(self.package, module, None)
            for func in funcs:
                base = metric_name(module, func)
                owner, attr = mod, func
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(mod, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(base)
                    continue
                plan.append((owner, attr, original, base))
        budget = getattr(getattr(self.package, "embedding", None), "_Budget", None)
        if budget is None or not hasattr(budget, "spend"):
            self.absent.append("embedding.find_embedding.nodes")
        else:
            plan.append((budget, "spend", budget.spend, None))
        return plan

    def _wrap(self, original, base):
        if base is None:  # search-node counter, no span
            counters = self.counters

            def spend(budget_self):
                counters["find_embedding.nodes"] += 1
                return original(budget_self)
            return spend
        hook = getattr(self, "_after_" + base.replace(".", "_"), None)
        if base in GENERATORS:
            return self._wrap_generator(original, base)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(base)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _wrap_generator(self, original, base):
        tracer = self

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                span = tracer.open(base)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item
        return traced

    def install(self) -> None:
        modules = self._modules()
        for owner, attr, original, base in self._plan:
            wrapper = self._wrap(original, base)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _cache_hits(self) -> int:
        return self._cache_info().hits if self._cache_info is not None else 0

    # --------------------------------------------------------------- spans

    def begin_op(self) -> None:
        self.op += 1
        self._hits_before = self._cache_hits()

    def end_op(self) -> None:
        """Count the op's cache hits (the cache may be cleared between ops)."""
        self.counters["r_lambda.cache_hits"] += self._cache_hits() - self._hits_before

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()
        self.stack.pop()

    # -------------------------------------------------- counts at boundaries

    def _after_embedding_verify_embedding(self, args, result) -> None:
        emb = args[0] if args else None
        source = getattr(emb, "source", None)
        if source is not None:
            self.counters["verify_embedding.pairs"] += len(source) ** 2

    def _after_tame_reduce(self, args, result) -> None:
        quotient = getattr(result, "quotient", None)
        if quotient is not None and args:
            self.counters["reduce.classes"] += len(quotient)
            self.counters["reduce.elements"] += len(args[0])

    def _after_templates_realize(self, args, result) -> None:
        w, inflated = getattr(result, "w", None), getattr(result, "inflated", None)
        if w is not None and inflated is not None:
            self.counters["realize.kept"] += len(w)
            self.counters["realize.inflated"] += len(inflated)

    # ------------------------------------------------------------- results

    def metrics(self, cycles: int, overhead_ratio: float, op_scale=None) -> dict[str, float]:
        """Per-layer values per traced cycle; ratios over the whole run."""
        times = self_times(self.spans, op_scale)
        out = {}
        for module, funcs in TARGETS.items():
            for func in funcs:
                base = metric_name(module, func)
                self_s, calls = times.get(base, (0.0, 0))
                out[f"{base}.self_s"] = self_s / cycles
                out[f"{base}.calls"] = calls / cycles
        c = self.counters
        scans = times.get("embedding.embeds_r22", (0.0, 0))[1]
        out["embedding.embeds_r22.calls_per_op"] = scans / max(self.op + 1, 1)
        out["embedding.verify_embedding.pairs"] = c["verify_embedding.pairs"] / cycles
        out["embedding.find_embedding.nodes"] = c["find_embedding.nodes"] / cycles
        out["tame.reduce.class_ratio"] = c["reduce.classes"] / max(c["reduce.elements"], 1)
        out["templates.r_lambda.cache_hits"] = c["r_lambda.cache_hits"] / cycles
        out["templates.inflate.kept_ratio"] = c["realize.kept"] / max(c["realize.inflated"], 1)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{'' if parent is None else parent}\t{op}\n")
