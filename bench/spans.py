"""Spans around the public functions of the rdnum layers.

`Tracer.install` replaces every public function of the modules survey, rd,
connectivity, coloring and graphs at each rdnum module attribute that holds
it, so calls the program makes between its own modules are caught as well
as the benchmark's calls.  `uninstall` puts the originals back, so untraced
rounds run the program exactly as shipped.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends; a span's self
time is its duration minus the durations of its child spans.

Private helpers are not wrapped, so time in them (building the cut system,
the coloring search) counts as self time of the public function that called
them.  Two per-edge helpers of graphs are not wrapped either: they are
called millions of times and a span around them would only measure the
wrapper.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("survey", "rd", "connectivity", "coloring", "graphs")
UNWRAPPED = {"graphs.normalize_edge", "graphs.mask_vertices"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of_span = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")  # 1 when a span of the same name encloses it
        self.stack = [-1]
        self.tags: dict[int, str] = {}
        self.search_nodes = 0
        self.search_levels = 0
        self.certificates = 0
        self.star_certificates = 0
        self.aux_graphs: list[tuple] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[str, tuple] = {}
        self._rules: dict[str, frozenset] = {}

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        import rdnum

        rd = sys.modules["rdnum.rd"]
        self._rules = {"primary": rd.CHAIN_RULES, "aux": rd.FAST_AUX_RULES}
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"rdnum.{layer}"]
                for name, fn in vars(mod).items():
                    qual = f"{layer}.{name}"
                    if (
                        name.startswith("_")
                        or qual in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                    ):
                        continue
                    self._wrappers[qual] = (fn, self._wrap(qual, fn))
        originals = {id(fn): wrapped for fn, wrapped in self._wrappers.values()}
        mods = [rdnum] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("rdnum.")
        ]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        hook = getattr(self, "_after_" + qual.replace(".", "_"), None)
        stack, start, end = self.stack, self.start, self.end
        parent, name_of_span, nested = self.parent, self.name_of_span, self.nested
        depth = [0]

        def traced(*args, **kwargs):
            idx = len(start)
            name_of_span.append(nid)
            parent.append(stack[-1])
            nested.append(depth[0] > 0)
            end.append(0.0)
            stack.append(idx)
            depth[0] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                depth[0] -= 1
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- what some layers report beyond their time ----------------------------

    def _after_rd_rd_exact(self, idx, args, kwargs, result) -> None:
        self.search_nodes += result.search_nodes
        if result.method == "search":
            b = result.bounds
            found = result.coloring is not None
            self.search_levels += (result.value - b.lower + 1) if found else (b.upper - b.lower)
        p = self.parent[idx]
        if p < 0 or not self.names[self.name_of_span[p]].startswith("survey."):
            return
        rules = kwargs.get("rules", args[3] if len(args) > 3 else None)
        for tag, ruleset in self._rules.items():
            if rules == ruleset:
                self.tags[idx] = tag
                if tag == "aux":
                    g = args[0]
                    self.aux_graphs.append((g.n, g.edges))

    def _after_rd_find_rainbow_cut(self, idx, args, kwargs, result) -> None:
        if result is not None:
            self.certificates += 1
            if result.side.bit_count() in (1, args[0].graph.n - 1):
                self.star_certificates += 1

    # -- reading the spans ------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The exact counts the determinism guard compares between rounds."""
        calls = self._calls()
        return {
            "rd.search_nodes": self.search_nodes,
            "survey.aux_solves": sum(1 for t in self.tags.values() if t == "aux"),
            "survey.canonical_form_calls": calls.get("survey.canonical_form", 0),
            "connectivity.maxflow_calls": calls.get("connectivity.local_edge_connectivity", 0),
        }

    def _calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name_of_span:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def layer_metrics(self, distinct_aux: int) -> dict[str, float]:
        """Per-layer totals over every span recorded so far.

        `distinct_aux` is the number of isomorphism classes among the
        graphs of the survey's auxiliary solves."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for i in range(n):
            name = names[self.name_of_span[i]]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            if not self.nested[i]:  # count a recursive call's time once
                incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        tagged = {"primary": 0.0, "aux": 0.0}
        for i, tag in self.tags.items():
            tagged[tag] += dur[i]
        calls = self._calls()
        counts = self.counts()
        harness = sum(
            t
            for name, t in self_s.items()
            if name.startswith("survey.")
            and name not in ("survey.enumerate_connected_graphs", "survey.canonical_form")
        )
        aux = counts["survey.aux_solves"]
        return {
            "survey.enumerate_s": incl_s.get("survey.enumerate_connected_graphs", 0.0),
            "survey.canonical_form_calls": counts["survey.canonical_form_calls"],
            "survey.harness_self_s": harness,
            "survey.primary_solve_s": tagged["primary"],
            "survey.aux_solves": aux,
            "survey.aux_solve_s": tagged["aux"],
            "survey.aux_distinct_ratio": distinct_aux / aux if aux else 0.0,
            "rd.exact_calls": calls.get("rd.rd_exact", 0),
            "rd.exact_self_s": self_s.get("rd.rd_exact", 0.0),
            "rd.search_nodes": self.search_nodes,
            "rd.search_levels": self.search_levels,
            "rd.bounds_calls": calls.get("rd.rd_bounds", 0),
            "rd.bounds_self_s": self_s.get("rd.rd_bounds", 0.0),
            "rd.verify_calls": calls.get("rd.verify_rd_coloring", 0),
            "rd.verify_self_s": self_s.get("rd.verify_rd_coloring", 0.0),
            "rd.cut_queries": calls.get("rd.find_rainbow_cut", 0),
            "rd.cut_query_s": incl_s.get("rd.find_rainbow_cut", 0.0),
            "rd.star_cert_ratio": (
                self.star_certificates / self.certificates if self.certificates else 0.0
            ),
            "rd.construct_self_s": self_s.get("rd.construct_rd_coloring", 0.0),
            "connectivity.lambda_plus_calls": calls.get("connectivity.upper_edge_connectivity", 0),
            "connectivity.lambda_plus_s": incl_s.get("connectivity.upper_edge_connectivity", 0.0),
            "connectivity.maxflow_calls": counts["connectivity.maxflow_calls"],
            "connectivity.maxflow_s": incl_s.get("connectivity.local_edge_connectivity", 0.0),
            "coloring.classify_calls": calls.get("coloring.classify_chromatic", 0),
            "coloring.classify_s": incl_s.get("coloring.classify_chromatic", 0.0),
            "coloring.chi_exact_calls": calls.get("coloring.chromatic_index_exact", 0),
            "coloring.chi_exact_s": incl_s.get("coloring.chromatic_index_exact", 0.0),
            "coloring.critical_s": incl_s.get("coloring.color_critical_value", 0.0),
            "coloring.minimal_s": incl_s.get("coloring.is_chromatic_index_minimal", 0.0),
            "graphs.graph6_s": incl_s.get("graphs.encode_graph6", 0.0)
            + incl_s.get("graphs.parse_graph6", 0.0),
        }

    def write(self, out, segment: str) -> None:
        """Every span as one tab-separated line: segment, name, start and end
        in microseconds from the segment's first span, and the parent's line
        number within the segment (-1 for none)."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        for i in range(len(self.start)):
            out.write(
                f"{segment}\t{names[self.name_of_span[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
            )
