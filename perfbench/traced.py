"""Run one cuberamsey command in-process, with a span around each call into
a package module, and write the spans out when the command ends.

    python3 perfbench/traced.py SPANS_JSON RUN_ID ARGS...

ARGS are the command-line arguments of ``cuberamsey``.  The wrappers are set
on the module attributes through which the program looks its callees up, so
the program's source is untouched.  Search worker processes keep the calls
they make to themselves; their time shows in the parent's search span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _workers(args, kwargs) -> int:
    return kwargs.get("workers", args[5] if len(args) > 5 else 1)


# (module[:class], attribute, span name, counts taken from the call and its
# result).  Calls are wrapped where the caller looks them up, so a function
# imported into cli is wrapped in cli's namespace.
WRAP_POINTS = [
    ("cuberamsey.lattice", "index_table", "lattice.table", None),
    *(
        (module, name, "lattice.table", None)
        for module in ("cuberamsey.coloring", "cuberamsey.properties")
        for name in ("popcount_table", "pair_count_table", "missed_count_table")
    ),
    ("cuberamsey.coloring", "odd_sum_table", "lattice.table", None),
    ("cuberamsey.cli", "make_c0", "coloring.make_c0", None),
    ("cuberamsey.cli", "save_coloring", "coloring.save", None),
    ("cuberamsey.coloring", "render_coloring", "coloring.render", None),
    ("cuberamsey.cli", "load_coloring", "coloring.load", None),
    ("cuberamsey.coloring", "parse_coloring", "coloring.parse",
     lambda a, k, r: {"bytes": len(a[0])}),
    ("cuberamsey.cli", "dual_coloring", "coloring.dual", None),
    ("cuberamsey.coloring:Coloring", "color_class", "coloring.color_class", None),
    ("cuberamsey.cli", "is_restrictive", "properties.restrictive",
     lambda a, k, r: {"checked": r.checked_count}),
    ("cuberamsey.cli", "find_copy", "search.find_copy",
     lambda a, k, r: {"workers": _workers(a, k), "status": r.status,
                      "nodes": r.nodes_explored}),
    ("cuberamsey.search", "verify_embedding", "search.verify_embedding", None),
    ("cuberamsey.cli", "verify_embedding", "search.verify_embedding", None),
    ("cuberamsey.cli", "ramsey_bruteforce", "bruteforce.ramsey",
     lambda a, k, r: {"checked": sum(x.colorings_checked for x in r.results)}),
    ("cuberamsey.cli", "build_flip_graph", "flipgraph.build",
     lambda a, k, r: {"edges": len(r.edges)}),
    ("cuberamsey.cli", "check_bipartition", "flipgraph.bipartition", None),
    ("cuberamsey.cli", "export_edges", "flipgraph.export", None),
    ("cuberamsey.cli", "render_report", "reports.render", None),
    ("cuberamsey.cli", "render_embedding_block", "reports.render", None),
    ("cuberamsey.cli", "parse_report", "reports.parse", None),
    ("cuberamsey.cli", "parse_embedding_block", "reports.parse", None),
]


class Tracer:
    """Spans of one command, kept in memory: name, start, end, parent span
    id (0 for none) and the run id they share."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._last_id = 0
        self._tables: set[int] = set()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            sid = self._last_id
            span = {"run": self.run_id, "id": sid, "name": name,
                    "parent": self._stack[-1] if self._stack else 0}
            self._stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            if name == "lattice.table" and id(result) not in self._tables:
                # Tables are cached; count each one once, on its cold build.
                self._tables.add(id(result))
                span["bytes"] = getattr(result, "nbytes", 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every wrap point.  A wrap point the package lacks raises, so
        the command fails instead of reporting an unmeasured layer as 0."""
        for where, attr, name, counts in WRAP_POINTS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))


def main(argv: list[str]) -> int:
    spans_path, run_id, *args = argv
    tracer = Tracer(run_id)
    try:
        cli = tracer.wrap("cli.import", lambda: importlib.import_module("cuberamsey.cli"))()
        tracer.install()
        return tracer.wrap("cli.main", cli.main)(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
