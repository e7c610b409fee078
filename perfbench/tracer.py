"""Spans around the program's public functions, for the traced run only.

:meth:`Tracer.install` rebinds each traced function in every ``knowhow``
module that holds it (``knowhow.syntax.formula_height``,
``knowhow.semantics.find_plan``, ...), so calls between the program's own
modules are seen too; ``Model`` construction is traced through
``Model.__init__``.  :meth:`Tracer.uninstall` restores the originals.
Nothing in the program is edited.

A span is a name, a start, an end and the index of the enclosing span.
Spans are kept in flat arrays while the run lasts and written out at the
end.  A span's self time is its duration minus the durations of its
children, which lie inside it and do not overlap (one thread).  Spans are
recorded only while :attr:`Tracer.active` is set, which the benchmark
does around each timed item, so its own set-up and checks leave no spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import knowhow.models as models

# Public functions traced, as "<module>.<function>".  The per-layer metric
# names derive from these.
FUNCTIONS = (
    "planning.verify_plan",
    "planning.find_plan",
    "syntax.formula_height",
    "syntax.normalize",
    "syntax.substitute_all",
    "syntax.parse_formula",
    "syntax.print_formula",
    "semantics.ext",
    "models.parse_model",
    "proofs.parse_proof",
    "proofs.is_tautology",
    "proofs.check_proof_under",
    "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.open_spans = [-1]
        self.active = False
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.open_spans[-1])
        self.span_end.append(0.0)
        self.open_spans.append(index)
        self.span_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self.open_spans.pop()

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _traced_stream(self, stream):
        while True:
            index = self.open("modelgen.generate") if self.active else None
            try:
                model = next(stream)
            except StopIteration:
                return
            finally:
                if index is not None:
                    self.close(index)
            if index is not None:
                self.counts["modelgen.generate.models"] += 1
            yield model

    # -- observers: counts taken outside the spans --------------------------

    def _find_plan(self, args, result) -> None:
        self.counts["planning.find_plan.explored"] += result.explored
        self.keys["planning.find_plan"].add((args[0], frozenset(args[1]), frozenset(args[2])))

    def _verify_plan(self, args, result) -> None:
        self.counts["planning.verify_plan.ok"] += bool(result.ok)

    def _ext(self, args, result) -> None:
        self.keys["semantics.ext"].add((args[0], args[1]))

    # -- installing ---------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "knowhow" and not name.startswith("knowhow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        observers = {
            "planning.find_plan": self._find_plan,
            "planning.verify_plan": self._verify_plan,
            "semantics.ext": self._ext,
        }
        for dotted in FUNCTIONS:
            module_name, attr = dotted.split(".")
            original = getattr(sys.modules[f"knowhow.{module_name}"], attr)
            self._rebind(original, self._wrap(dotted, original, observers.get(dotted)))

        generate = sys.modules["knowhow.modelgen"].generate
        self._rebind(generate, lambda *args, **kwargs: self._traced_stream(generate(*args, **kwargs)))

        init = models.Model.__init__
        self.restore.append((models.Model, "__init__", init))
        models.Model.__init__ = self._wrap("models.Model", init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the counters."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                children[parent] += duration[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += duration[i] - children[i]
        out: dict[str, float] = {"trace.spans": n}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, value in self.counts.items():
            out[name] = value
        for name, keys in self.keys.items():
            out[f"{name}.distinct"] = len(keys)
        return out

    def write(self, path: str) -> None:
        """Gzipped text, one span a line: name, start and end in
        microseconds from the first span, and the parent's line number
        (0-based; -1 for none)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\t{self.span_parent[i]}\n"
                )
