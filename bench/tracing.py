"""Spans around the program's functions, installed from outside the program.

A wrapper replaces a function under every name that a domrecon module
binds to it (a `from .graphs import is_dominating` copy included), and
NormalizedTD methods are patched on the class. Three kinds of wrapper:

- span: records (name, start, end, parent span, request id, time covered
  by wrapped children), so self time is the span minus its children;
- leaf: too hot for one span per call (is_dominating runs ~10^5 times per
  request), so its time and calls are summed, and its time is charged to
  the enclosing span's children;
- count: only the number of calls (is_descendant runs ~10^6 times).

Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, attribute, kind); NormalizedTD methods are patched on the class
TARGETS = [
    ("cli", "main", SPAN),
    ("graphs", "parse_graph", SPAN),
    ("graphs", "exact_invariants", SPAN),
    ("graphs", "reduce_to_minimal", SPAN),
    ("graphs", "pop_removable", SPAN),
    ("graphs", "is_dominating", LEAF),
    ("sequences", "verify_sequence", SPAN),
    ("sequences", "parse_sequence", SPAN),
    ("sequences", "format_sequence", SPAN),
    ("general", "general_transform", SPAN),
    ("minor_sparse", "minor_sparse_transform", SPAN),
    ("minor_sparse", "find_swap", SPAN),
    ("minor_sparse", "pad_to_size", SPAN),
    ("treewidth", "parse_td", SPAN),
    ("treewidth", "validate_td", SPAN),
    ("treewidth", "normalize_td", SPAN),
    ("treewidth", "tw_step", SPAN),
    ("treewidth", "classify_left", SPAN),
    ("treewidth", "final_merge", SPAN),
    ("treewidth", "NormalizedTD.vertex_tops", SPAN),
    ("treewidth", "NormalizedTD.is_descendant", COUNT),
    ("oracle", "threshold_scan", SPAN),
    ("oracle", "build_reconfig_graph", SPAN),
    ("oracle", "diameter", SPAN),
    ("oracle", "max_component_diameter", SPAN),
    ("oracle", "distance", SPAN),
    ("oracle", "frozen_sets", SPAN),
]


def _removals(args, result):
    return len(result[1])


def _states(args, result):
    return result.length + 1


def _rk_nodes(args, result):
    return result.num_nodes


def _rk_edges(args, result):
    return result.num_edges


def _diameter_sources(args, result):
    # diameter() runs a BFS from every node only when R_k is connected
    rg = args[0]
    return rg.num_nodes if rg.num_components == 1 else 0


def _all_sources(args, result):
    return args[0].num_nodes


# counters read from a wrapped call's arguments or result
TALLIES = {
    "graphs.reduce_to_minimal": [("graphs.reduce_to_minimal_removals", _removals)],
    "sequences.verify_sequence": [("sequences.states_checked", _states)],
    "oracle.build_reconfig_graph": [
        ("oracle.rk_nodes", _rk_nodes),
        ("oracle.rk_edges", _rk_edges),
    ],
    "oracle.diameter": [("oracle.bfs_sources", _diameter_sources)],
    "oracle.max_component_diameter": [("oracle.bfs_sources", _all_sources)],
}


class Tracer:
    """In-memory spans plus call counts and leaf times."""

    def __init__(self):
        self.spans: list[list] = []  # name, start, end, parent, request, child_s
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.request = None
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        tallies = TALLIES.get(name, ())
        calls = name + "_calls"

        def wrapped(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, self.request, 0.0]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += end - record[1]
            self.counts[calls] += 1
            for counter, tally in tallies:
                self.counts[counter] += tally(args, result)
            return result

        return wrapped

    def _leaf(self, name, fn):
        calls = name + "_calls"
        leaf_s = self.leaf_s
        counts = self.counts
        spans = self.spans
        stack = self.stack

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                leaf_s[name] += took
                counts[calls] += 1
                if stack:
                    spans[stack[-1]][5] += took

        return wrapped

    def _count(self, name, fn):
        calls = name + "_calls"
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self, targets) -> list[str]:
        """Wrap each (module, attribute, kind); returns the names not found."""
        missing = []
        for module_name, attr, kind in targets:
            module = sys.modules.get("domrecon." + module_name)
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, method, None) if holder else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name}.{method}"
            make = {SPAN: self._span, LEAF: self._leaf, COUNT: self._count}[kind]
            wrapper = make(name, original)
            if owner:
                self._patch(holder, method, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "domrecon" or mod_name.startswith("domrecon."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return missing

    def _patch(self, holder, key, wrapper):
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "leaf_s": dict(self.leaf_s),
        }


# per-layer metric -> (source, how): "incl" / "self" sum span durations,
# "leaf" reads summed leaf time, "count" reads a counter
PER_LAYER = {
    "cli.self_s": ("cli.main", "self"),
    "graphs.parse_graph_s": ("graphs.parse_graph", "incl"),
    "graphs.exact_invariants_s": ("graphs.exact_invariants", "incl"),
    "graphs.exact_invariants_calls": ("graphs.exact_invariants_calls", "count"),
    "graphs.reduce_to_minimal_s": ("graphs.reduce_to_minimal", "incl"),
    "graphs.reduce_to_minimal_removals": ("graphs.reduce_to_minimal_removals", "count"),
    "graphs.pop_removable_s": ("graphs.pop_removable", "incl"),
    "graphs.pop_removable_calls": ("graphs.pop_removable_calls", "count"),
    "graphs.is_dominating_s": ("graphs.is_dominating", "leaf"),
    "graphs.is_dominating_calls": ("graphs.is_dominating_calls", "count"),
    "sequences.verify_sequence_s": ("sequences.verify_sequence", "incl"),
    "sequences.states_checked": ("sequences.states_checked", "count"),
    "sequences.parse_sequence_s": ("sequences.parse_sequence", "incl"),
    "sequences.format_sequence_s": ("sequences.format_sequence", "incl"),
    "general.general_transform_s": ("general.general_transform", "self"),
    "general.general_transform_calls": ("general.general_transform_calls", "count"),
    "minor_sparse.minor_sparse_transform_s": ("minor_sparse.minor_sparse_transform", "self"),
    "minor_sparse.find_swap_s": ("minor_sparse.find_swap", "incl"),
    "minor_sparse.find_swap_calls": ("minor_sparse.find_swap_calls", "count"),
    "minor_sparse.pad_to_size_s": ("minor_sparse.pad_to_size", "incl"),
    "treewidth.parse_td_s": ("treewidth.parse_td", "incl"),
    "treewidth.validate_td_s": ("treewidth.validate_td", "incl"),
    "treewidth.normalize_td_s": ("treewidth.normalize_td", "incl"),
    "treewidth.tw_step_s": ("treewidth.tw_step", "self"),
    "treewidth.tw_step_calls": ("treewidth.tw_step_calls", "count"),
    "treewidth.vertex_tops_s": ("treewidth.vertex_tops", "incl"),
    "treewidth.vertex_tops_calls": ("treewidth.vertex_tops_calls", "count"),
    "treewidth.classify_left_s": ("treewidth.classify_left", "incl"),
    "treewidth.is_descendant_calls": ("treewidth.is_descendant_calls", "count"),
    "treewidth.final_merge_s": ("treewidth.final_merge", "incl"),
    "oracle.threshold_scan_s": ("oracle.threshold_scan", "self"),
    "oracle.diameter_s": ("oracle.diameter", "incl"),
    "oracle.max_component_diameter_s": ("oracle.max_component_diameter", "incl"),
    "oracle.bfs_sources": ("oracle.bfs_sources", "count"),
    "oracle.build_reconfig_graph_s": ("oracle.build_reconfig_graph", "incl"),
    "oracle.rk_nodes": ("oracle.rk_nodes", "count"),
    "oracle.rk_edges": ("oracle.rk_edges", "count"),
    "oracle.distance_s": ("oracle.distance", "incl"),
    "oracle.frozen_sets_s": ("oracle.frozen_sets", "incl"),
}


def per_layer(trace: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the request list, from a Tracer dump."""
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for name, start, end, _parent, _request, child_s in trace["spans"]:
        incl[name] += end - start
        self_s[name] += end - start - child_s
    sources = {"incl": incl, "self": self_s, "leaf": trace["leaf_s"], "count": trace["counts"]}
    out = {}
    for metric, (source, how) in PER_LAYER.items():
        total = sources[how].get(source, 0)
        if how == "count" and total % passes == 0:
            out[metric] = total // passes
        else:
            out[metric] = total / passes
    return out


def generator_seconds(trace: dict, setups: int) -> float:
    """instances.gen_s: time in the instance generators per set-up."""
    total = sum(
        end - start
        for name, start, end, parent, _req, _child in trace["spans"]
        if name.startswith("instances.") and parent < 0
    )
    return total / setups
