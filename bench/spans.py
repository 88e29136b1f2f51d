"""Span tracing for the traced benchmark run, installed from outside the
program: each listed function is replaced at every module attribute
that binds it, so nested calls become child spans.  Spans stay in memory
until the run ends."""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Every public function the per-layer metrics name, as module, attribute.
TRACED = (
    ("geometry", "pair_contacts"),
    ("geometry", "validate_family"),
    ("geometry", "crossing_points"),
    ("graphs", "CurveFamily.from_curves"),
    ("graphs", "build_intersection_graph"),
    ("graphs", "OrderedGraph.induced"),
    ("generators", "generate"),
    ("fileformat", "load_family"),
    ("fileformat", "dump_family"),
    ("coloring", "chi_exact"),
    ("coloring", "omega_exact"),
    ("coloring", "chi_heuristic"),
    ("coloring", "dilworth_chain_partition"),
    ("lemmas", "extract_gap_subgraph"),
    ("lemmas", "alpha_sequence"),
    ("lemmas", "max_layer_chi"),
    ("lemmas", "arc_analysis"),
    ("lemmas", "decompose_around_pair"),
    ("configurations", "detect_config"),
    ("configurations", "short_check"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    """Records (name index, start, end, parent span, instance, failed)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = -1
        self.chi_inputs: dict[int, object] = {}  # span -> graph argument
        self.crossing_hits: set[int] = set()  # spans that found a crossing
        self.family_sizes: dict[int, int] = {}  # instance -> curves validated
        self._restore: list = []

    def install(self) -> None:
        for fid, (module, attr) in enumerate(TRACED):
            owner = sys.modules[f"xmcurves.{module}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                static = isinstance(raw, staticmethod)
                func = raw.__func__ if static else raw
                wrapped = self._wrap(fid, func)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
                continue
            func = getattr(owner, attr)
            wrapped = self._wrap(fid, func)
            for name, mod in list(sys.modules.items()):
                if name != "xmcurves" and not name.startswith("xmcurves."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._restore.append((mod, key, func))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fid: int, func):
        spans, stack = self.spans, self.stack
        name = NAMES[fid]

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.instance, failed)
            if name == "coloring.chi_exact":
                self.chi_inputs[idx] = args[0]
            elif name == "geometry.crossing_points" and result:
                self.crossing_hits.add(idx)
            elif name == "geometry.validate_family":
                size = len(args[0])
                if size > self.family_sizes.get(self.instance, 0):
                    self.family_sizes[self.instance] = size
            return result

        traced.__wrapped__ = func
        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent,
        instance, failed."""
        with open(path, "w", encoding="utf-8") as out:
            for fid, start, end, parent, instance, failed in self.spans:
                out.write(json.dumps([NAMES[fid], start, end, parent, instance, failed]))
                out.write("\n")

    def layer_metrics(self, presolved) -> dict[str, float]:
        """calls, self_s and failed for every traced function, plus the
        ratios the benchmark names.  presolved(graph) says whether the
        graph's clique number already equals its DSATUR colour count."""
        k = len(NAMES)
        calls, failed = [0] * k, [0] * k
        self_s = [0.0] * k
        for fid, start, end, parent, _inst, bad in self.spans:
            calls[fid] += 1
            failed[fid] += bad
            self_s[fid] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_s[fid]
            out[f"{name}.failed"] = failed[fid]

        def ratio(num, den):
            return num / den if den else 0.0

        pc = NAMES.index("geometry.pair_contacts")
        out["geometry.pair_contacts.us_per_call"] = ratio(self_s[pc] * 1e6, calls[pc])
        pairs = sum(n * (n - 1) // 2 for n in self.family_sizes.values())
        out["geometry.pair_contacts.calls_per_pair"] = ratio(calls[pc], pairs)
        cp = NAMES.index("geometry.crossing_points")
        out["geometry.crossing_points.hit_ratio"] = ratio(len(self.crossing_hits), calls[cp])

        gen = NAMES.index("generators.generate")
        vf = NAMES.index("geometry.validate_family")
        inside_generate = 0
        for fid, _s, _e, parent, _i, _b in self.spans:
            if fid != vf:
                continue
            while parent >= 0 and self.spans[parent][0] != gen:
                parent = self.spans[parent][3]
            inside_generate += parent >= 0
        out["generators.generate.validations_per_family"] = ratio(inside_generate, calls[gen])

        graphs = list(self.chi_inputs.values())
        distinct = {(g.vertices, g.edges) for g in graphs}
        out["coloring.chi_exact.distinct_ratio"] = ratio(len(distinct), len(graphs))
        solved: dict = {}
        hits = 0
        for g in graphs:
            key = (g.vertices, g.edges)
            if key not in solved:
                solved[key] = presolved(g)
            hits += solved[key]
        out["coloring.chi_exact.presolved_ratio"] = ratio(hits, len(graphs))
        return out
