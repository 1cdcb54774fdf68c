"""Spans and counters around the engine's layer boundaries, from outside.

`Tracer.install()` replaces functions with timing wrappers *where their
callers look them up*: a module attribute such as `geometry.eval_relation`,
a name imported into another module such as `logic.eval_constraint`, a class
attribute such as `Theory.hierarchy`, and default arguments bound to the
original function (`library.classify(evaluator=logic.eval_formula)`), so an
identity test such as `evaluator is eval_formula` still sees one object.

Every wrapped call opens a span: name, start, end, parent span and command
id. Generator functions open one span per resumption and count what they
yield. Spans stay in compact arrays in memory and are written out once, when
the traced child ends; `self_times()` turns them into self time per span
name (a span's duration minus the part its child spans cover). Work done in
unwrapped helpers and in `Fraction` arithmetic folds into the calling span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "dsl", "model", "geometry", "logic", "dynamics", "library", "enumeration")

# (module, attribute path, span name, what each yielded item counts as).
# Several places may share one span name: a function and the names it was
# imported under.
WRAPS = (
    ("dsl", "parse_theory", "dsl.parse", None),
    ("dsl", "parse_scenario", "dsl.parse", None),
    ("dsl", "sort_check", "dsl.sort_check", None),
    ("dsl", "serialize_trace", "dsl.serialize_trace", None),
    ("model", "Theory.hierarchy", "model.hierarchy", None),
    ("geometry", "EvalContext.for_scenario", "geometry.context", None),
    ("geometry", "eval_relation", "geometry.eval_relation", None),
    ("geometry", "eval_constraint", "geometry.eval_constraint", None),
    ("logic", "eval_constraint", "geometry.eval_constraint", None),
    ("geometry", "bottom", "geometry.shape", None),
    ("geometry", "top", "geometry.shape", None),
    ("geometry", "horizontal_overlap", "geometry.shape", None),
    ("logic", "check_theory", "logic.check_theory", None),
    ("library", "check_theory", "logic.check_theory", None),
    ("logic", "eval_formula", "logic.eval_formula", None),
    ("dynamics", "eval_formula", "logic.eval_formula", None),
    ("logic", "reference_eval", "logic.reference_eval", None),
    ("logic", "substitute_symbols", "logic.substitute_symbols", None),
    ("library", "schema_theory", "library.schema_theory", None),
    ("library", "candidate_bindings", "library.candidate_bindings", "library.bindings.generated"),
    ("library", "satisfying_bindings", "library.satisfying_bindings", None),
    ("library", "classify", "library.classify", None),
    ("library", "analogy", "library.analogy", None),
    ("dynamics", "simulate", "dynamics.simulate", None),
    ("dynamics", "stratify", "dynamics.stratify", None),
    ("dynamics", "step", "dynamics.step", None),
    ("enumeration", "count_models", "enumeration.run", None),
    ("enumeration", "enumerate_models", "enumeration.run", None),
    ("enumeration", "_models", "enumeration.search", "enumeration.models"),
    ("enumeration", "_assignment_traces", "enumeration.assign", "enumeration.candidates"),
)

class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_command = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._sites: list[tuple] | None = None

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.command.append(self.current_command)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`, counting the call."""
        self.calls[name] += 1
        i = self.open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def _wrap(self, fn, span: str, yield_counter):
        nid = self._id(span)
        calls, counts = self.calls, self.counts

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[span] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = self.open(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.close(i)
                        if yield_counter:
                            counts[yield_counter] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if span == "logic.check_theory" and result.satisfied:
                counts["library.bindings.satisfied"] += 1
            elif span == "dsl.serialize_trace":
                counts["dsl.serialize_trace.bytes"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapped) for every site to patch."""
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        patches = []
        for module_name, path, span, yield_counter in WRAPS:
            owner = sys.modules[f"ischema.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span, yield_counter)
            wrapped = wrappers[id(fn)]
            patches.append((owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped))
        # Default arguments bound to an original must name its wrapper.
        modules = [m for n, m in sys.modules.items() if n.startswith("ischema.")]
        originals = [p[2].__func__ if isinstance(p[2], classmethod) else p[2] for p in patches]
        for fn in set(originals) | {f for m in modules for f in _functions(m)}:
            if fn.__defaults__ and any(id(d) in wrappers for d in fn.__defaults__):
                new = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
                patches.append((fn, "__defaults__", fn.__defaults__, new))
            if fn.__kwdefaults__ and any(id(d) in wrappers for d in fn.__kwdefaults__.values()):
                new = {k: wrappers.get(id(d), d) for k, d in fn.__kwdefaults__.items()}
                patches.append((fn, "__kwdefaults__", fn.__kwdefaults__, new))
        return patches

    def install(self) -> None:
        """Patch every site in WRAPS; call after `import ischema.cli`."""
        if self._sites is None:
            self._sites = self._patches()
        for owner, attr, _original, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._sites or ()):
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans out: a JSON header and the raw arrays."""
        with open(path, "wb") as f:
            header = json.dumps({"names": self.names, "n": len(self.name)}).encode("utf-8")
            f.write(len(header).to_bytes(8, "little"))
            f.write(header)
            for arr in (self.name, self.parent, self.command, self.start, self.end):
                arr.tofile(f)


def _functions(module):
    for obj in vars(module).values():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield member


def read_spans(path: Path):
    with open(path, "rb") as f:
        size = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(size))
        n = header["n"]
        arrays = []
        for code in ("i", "i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    return header["names"], arrays


def self_times(names, arrays, lo: int, hi: int) -> tuple[dict[str, float], Counter]:
    """Self time per span name over the spans [lo, hi) of whole commands, and
    how many spans of each name sit under a `dynamics.step` span or under an
    enumeration span."""
    name, parent, _command, start, end = arrays
    child = [0.0] * (hi - lo)
    for i in range(hi - 1, lo - 1, -1):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    step_id = names.index("dynamics.step") if "dynamics.step" in names else -1
    enum_ids = {k for k, s in enumerate(names) if s.startswith("enumeration.")}
    under = bytearray(hi - lo)  # 1: under a step span, 2: under an enumeration span
    nested: Counter = Counter()
    own: dict[str, float] = {}
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            pn = name[p]
            under[i - lo] = under[p - lo] or (1 if pn == step_id else 2 if pn in enum_ids else 0)
        label = names[name[i]]
        own[label] = own.get(label, 0.0) + (end[i] - start[i]) - child[i - lo]
        if under[i - lo] == 1:
            nested[("dynamics.step", label)] += 1
        elif under[i - lo] == 2:
            nested[("enumeration", label)] += 1
    return own, nested
