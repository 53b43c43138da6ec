"""In-memory spans and counters around calls into zonotile's modules.

A `Tracer` replaces chosen public functions of the zonotile modules with
wrappers defined here, in every zonotile namespace that holds them (the
defining module, the modules that import them by name, and the package),
and puts the originals back when it is uninstalled.  No file of the
program changes.  Spans are kept in memory and written out once, at the
end of the run; a span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name).  Functions sharing a span name form one
# per-layer figure; a span nested in one of the same name adds no time.
SPANS = [
    ("separation", "enumerate_maximal", "separation.enumerate"),
    ("separation", "maximal_cliques", "separation.clique_search"),
    ("separation", "is_maximal_separated", "separation.maximality_check"),
    ("geometry", "default_generators", "geometry.generators"),
    ("_planar", "check_planar_cover", "planar.validate"),
    ("rhombus", "from_s_collection", "rhombus.build"),
    ("combi", "from_w_collection", "combi.from_w"),
    ("combi", "from_rhombus", "combi.from_rhombus"),
    ("combi", "validate_combi", "combi.validate"),
    ("combi", "find_w_configs", "combi.find_configs"),
    ("combi", "find_m_configs", "combi.find_configs"),
    ("flips", "descend_to_minimum", "flips.descend"),
    ("flips", "lowering_flip", "flips.lowering"),
    ("flips", "raising_flip", "flips.raising"),
    ("contraction", "n_contract", "contraction.contract"),
    ("contraction", "n_expand", "contraction.expand"),
    ("contraction", "enumerate_legal_paths", "contraction.legal_paths"),
    ("patterns", "classify_pattern", "patterns.classify"),
    ("patterns", "domains", "patterns.domains"),
    ("patterns", "strong_domains", "patterns.domains"),
    ("patterns", "split_quasi", "patterns.split_merge"),
    ("patterns", "merge_repair", "patterns.split_merge"),
    ("patterns", "graph_pattern_domains", "patterns.face_domains"),
    ("patterns", "verify_face_domains", "patterns.face_domains"),
    ("suite", "run_suite", "suite.run_suite"),
    ("cli", "cmd", "cli.cmd"),
]
SUITE_CHECKS = (
    "hypercube_purity",
    "rank_formulas",
    "combi_bijection",
    "flip_coherence",
    "contraction_bijection",
    "pattern_theorems",
    "cross_exchange",
)
SPANS += [("suite", f"check_{c}", f"suite.{c}") for c in SUITE_CHECKS]

# Calls too small and too many for a span: counted only.  A weak test runs
# the strong one inside it, and both count as relation calls.
COUNTED = [
    ("separation", "weakly_separated", "separation.relation_calls"),
    ("separation", "strongly_separated", "separation.relation_calls"),
    ("geometry", "embed", "geometry.embed_calls"),
]

# Counts read from a traced call's arguments or result.
TALLIES = {
    "separation.enumerate": ("separation.collections", lambda args, out: len(out.maximal_collections)),
    "planar.validate": ("planar.tile_edges", lambda args, out: sum(len(c) for _, c in args[1])),
    "contraction.legal_paths": ("contraction.paths", lambda args, out: len(out)),
}

# Per-layer metrics in report order, with their units.
PER_LAYER = [
    ("separation.enumerate_s", "s"),
    ("separation.clique_search_s", "s"),
    ("separation.materialise_s", "s"),
    ("separation.maximality_check_s", "s"),
    ("separation.relation_calls", "count"),
    ("separation.collections", "count"),
    ("geometry.generators_s", "s"),
    ("geometry.generators_calls", "count"),
    ("geometry.embed_calls", "count"),
    ("planar.validate_s", "s"),
    ("planar.validations", "count"),
    ("planar.tile_edges", "count"),
    ("rhombus.build_s", "s"),
    ("rhombus.builds", "count"),
    ("combi.assembly_s", "s"),
    ("combi.validate_s", "s"),
    ("combi.find_configs_s", "s"),
    ("combi.builds", "count"),
    ("flips.descend_s", "s"),
    ("flips.lowering_s", "s"),
    ("flips.lowering_flips", "count"),
    ("flips.raising_s", "s"),
    ("flips.raising_flips", "count"),
    ("contraction.contract_s", "s"),
    ("contraction.expand_s", "s"),
    ("contraction.legal_paths_s", "s"),
    ("contraction.paths", "count"),
    ("patterns.classify_s", "s"),
    ("patterns.domains_s", "s"),
    ("patterns.split_merge_s", "s"),
    ("patterns.face_domains_s", "s"),
    ("patterns.classifications", "count"),
    *((f"suite.{c}_s", "s") for c in SUITE_CHECKS),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self) -> None:
        # One record per finished span: [id, parent id, name, start, end, self, outermost]
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [id, start, child time]
        self._open: Counter[str] = Counter()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name: str):
        tally = TALLIES.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            outermost = self._open[name] == 0
            self._open[name] += 1
            frame = [span_id, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                dur = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans.append([span_id, parent, name, frame[1], end, dur - frame[2], outermost])
            if tally is not None:
                self.counters[tally[0]] += tally[1](args, out)
            return out

        return traced

    def _count_wrapper(self, fn, name: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every function in SPANS and COUNTED wherever zonotile binds it."""
        namespaces = [m for k, m in sys.modules.items() if k == "zonotile" or k.startswith("zonotile.")]
        sep = sys.modules["zonotile.separation"]
        # The relation table is how separation's own loops reach the relations.
        namespaces.append(sep._RELATION_FUNC)
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, func, name in table:
                orig = getattr(sys.modules[f"zonotile.{module}"], func)
                wrappers[id(orig)] = (orig, make(orig, name))
        for ns in namespaces:
            items = ns.items() if isinstance(ns, dict) else vars(ns).items()
            for key, value in list(items):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, key, value))
                    self._set(ns, key, hit[1])

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patched):
            self._set(ns, key, value)
        self._patched.clear()

    @staticmethod
    def _set(ns, key, value) -> None:
        if isinstance(ns, dict):
            ns[key] = value
        else:
            setattr(ns, key, value)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """The per-layer figures, derived from the recorded spans."""
        total: Counter[str] = Counter()  # outermost spans only, so nesting adds nothing
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        names = {}
        for span_id, _, name, _, _, _, _ in self.spans:
            names[span_id] = name
        lowering = [0.0, 0]
        for _, parent, name, start, end, self_s, outermost in self.spans:
            calls[name] += 1
            own[name] += self_s
            if outermost:
                total[name] += end - start
            # A raising flip is a lowering flip on the complemented combi;
            # count only the lowering flips asked for directly.
            if name == "flips.lowering" and names.get(parent) != "flips.raising":
                lowering[0] += end - start
                lowering[1] += 1
        c = self.counters
        out = {
            "separation.enumerate_s": total["separation.enumerate"],
            "separation.clique_search_s": total["separation.clique_search"],
            "separation.materialise_s": own["separation.enumerate"],
            "separation.maximality_check_s": total["separation.maximality_check"],
            "separation.relation_calls": c["separation.relation_calls"],
            "separation.collections": c["separation.collections"],
            "geometry.generators_s": total["geometry.generators"],
            "geometry.generators_calls": calls["geometry.generators"],
            "geometry.embed_calls": c["geometry.embed_calls"],
            "planar.validate_s": total["planar.validate"],
            "planar.validations": calls["planar.validate"],
            "planar.tile_edges": c["planar.tile_edges"],
            "rhombus.build_s": total["rhombus.build"],
            "rhombus.builds": calls["rhombus.build"],
            "combi.assembly_s": own["combi.from_w"],
            "combi.validate_s": total["combi.validate"],
            "combi.find_configs_s": total["combi.find_configs"],
            "combi.builds": calls["combi.from_w"] + calls["combi.from_rhombus"],
            "flips.descend_s": total["flips.descend"],
            "flips.lowering_s": lowering[0],
            "flips.lowering_flips": lowering[1],
            "flips.raising_s": total["flips.raising"],
            "flips.raising_flips": calls["flips.raising"],
            "contraction.contract_s": total["contraction.contract"],
            "contraction.expand_s": total["contraction.expand"],
            "contraction.legal_paths_s": total["contraction.legal_paths"],
            "contraction.paths": c["contraction.paths"],
            "patterns.classify_s": total["patterns.classify"],
            "patterns.domains_s": total["patterns.domains"],
            "patterns.split_merge_s": total["patterns.split_merge"],
            "patterns.face_domains_s": total["patterns.face_domains"],
            "patterns.classifications": calls["patterns.classify"],
            "cli.overhead_s": own["cli.cmd"],
            "trace.overhead_s": overhead_s,
        }
        for check in SUITE_CHECKS:
            out[f"suite.{check}_s"] = total[f"suite.{check}"]
        return out

    def write(self, path) -> None:
        """Every span as one JSON line, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, self_s, _ in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "self": self_s}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
