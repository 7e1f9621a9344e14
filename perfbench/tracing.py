"""Outside-in tracing of planb's public functions for the traced benchmark run.

``Tracer.install`` replaces every public function of the traced modules, in
every planb namespace and dispatch table that holds it, with a wrapper that
records a span (name, phase, start, end, parent).  ``Graph.backward`` and
``Graph.recompute`` are wrapped the same way, and every new ``Graph`` gets a
node list that counts appends, so each span also knows how many tape nodes
were built while it was open.  ``uninstall`` puts every original back.
Nothing under ``src/`` changes.

Spans are kept in memory and summarised (or written out) after the run.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("autodiff", "nn", "crnn", "choicetable", "trainer", "metrics",
                  "datagen", "dataio", "cli")
GRAPH_METHODS = ("backward", "recompute")
# Called once per tape leaf; its cost is counted by the node counts instead.
SKIP = frozenset({"autodiff.as_tensor"})

# Counts taken from a call's arguments or result, summed per span name.
EXTRAS = {
    "datagen.enumerate_futures": lambda args, result: len(result.entries),
    "crnn.decode_thread": lambda args, result: len(result.action_logit_ids),
    "nn.adam_update": lambda args, result: len(args[2]),
}

# Span record fields.
NAME, PHASE, START, END, PARENT, CHILD_S, NODES0, NODES1, EXTRA = range(9)


def span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("cmd_"):
        attr = attr[len("cmd_"):]
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.nodes = 0  # tape nodes appended to any graph made while installed
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        from planb.autodiff import Graph

        wrappers = {}
        for module in TRACED_MODULES:
            mod = importlib.import_module(f"planb.{module}")
            for attr, obj in vars(mod).items():
                name = span_name(module, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[obj] = self._wrap(name, obj)

        # Wrap the name each caller looks up: module globals (including names
        # imported with ``from x import f``) and dispatch tables such as
        # ``cli.COMMANDS``.
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("planb."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, value, wrappers[value])

        for method in GRAPH_METHODS:
            orig = Graph.__dict__[method]
            self._patch(Graph, method, orig, self._wrap(f"autodiff.{method}", orig))

        tracer = self

        class CountingList(list):
            __slots__ = ()

            def append(self, item):
                list.append(self, item)
                tracer.nodes += 1

        orig_init = Graph.__dict__["__init__"]

        def counting_init(graph):
            orig_init(graph)
            graph.nodes = CountingList()

        self._patch(Graph, "__init__", orig_init, counting_init)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patches.clear()

    def _patch(self, target, key, orig, replacement) -> None:
        self._patches.append((target, key, orig))
        if isinstance(target, dict):
            target[key] = replacement
        else:
            setattr(target, key, replacement)

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            # A call made straight from a span of the same name (the recursion
            # of ``nn.bind``) belongs to the outermost call.
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [name, tracer.phase, 0.0, 0.0, parent, 0.0, tracer.nodes, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[END] = end
                record[NODES1] = tracer.nodes
                if parent >= 0:
                    spans[parent][CHILD_S] += end - record[START]
            if extra is not None:
                record[EXTRA] = extra(args, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, span name): calls, self seconds, inclusive seconds, nodes, extra."""
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nodes": 0, "extra": 0})
        for rec in self.spans:
            agg = out[(rec[PHASE], rec[NAME])]
            duration = rec[END] - rec[START]
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - rec[CHILD_S]
            agg["nodes"] += rec[NODES1] - rec[NODES0]
            agg["extra"] += rec[EXTRA]
        return dict(out)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "phase", "start_s", "end_s", "parent",
                             "self_s", "nodes"])
            for i, rec in enumerate(self.spans):
                writer.writerow([i, rec[NAME], rec[PHASE], f"{rec[START]:.9f}",
                                 f"{rec[END]:.9f}", rec[PARENT],
                                 f"{rec[END] - rec[START] - rec[CHILD_S]:.9f}",
                                 rec[NODES1] - rec[NODES0]])
