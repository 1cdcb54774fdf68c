"""Output checks for benchmark commands, run untimed in the parent process.

Where an independent oracle exists it decides the expected result:

- classify, check and analogy are recomputed here: every sort-compatible
  binding of distinct entities, built without the library's binding search,
  checked with `logic.reference_eval`, the engine's naive evaluator with no
  sharing or short-circuiting;
- enumerate counts come from closed forms over the grid, decided in
  `Fraction`: with I grid points strictly inside the circle, O outside, |G|
  points and horizon h, CONTAINMENT has I * |G|^(h-1) models and
  OBJECT_INTO_CONTAINER (one free object) has O * (|G|^(h-1) - O^(h-1));
  a listing must hold that many distinct models, each satisfying the schema;
- simulate traces are recomputed step by step: a pushed body moves sideways
  by its push, then every body not resting on a surface falls by the gravity
  step, clamped at the highest surface top beneath it that it overlaps
  horizontally.

`check()` returns None for a right output and a reason otherwise.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional


class Checker:
    def __init__(self, workdir: Path) -> None:
        from ischema import dsl, library, logic
        from ischema.errors import EVALUATION_GAP_ERRORS, IschemaError

        self.dsl, self.library, self.logic = dsl, library, logic
        self.gap_errors, self.ischema_error = EVALUATION_GAP_ERRORS, IschemaError
        self.workdir = workdir
        self._parsed: dict[str, object] = {}
        self._expected: dict[tuple, object] = {}

    def _load(self, name: str):
        if name not in self._parsed:
            text = (self.workdir / name).read_text(encoding="utf-8")
            parse = self.dsl.parse_theory if name.endswith(".ist") else self.dsl.parse_scenario
            self._parsed[name] = parse(text, name)
        return self._parsed[name]

    def _memo(self, key: tuple, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    # --- oracles ---------------------------------------------------------------

    def _candidates(self, theory, scenario) -> list[dict]:
        """Every sort-compatible binding of distinct entities: entities sorted
        by id, roles in declaration order."""
        hierarchy = theory.hierarchy()
        ids = sorted(e.id for e in scenario.entities)
        sorts = {e.id: e.sort for e in scenario.entities}
        pools = [[i for i in ids if hierarchy.subsort_of(sorts[i], sort)] for _, sort in theory.roles]
        return [
            {role: e for (role, _), e in zip(theory.roles, combo)}
            for combo in itertools.product(*pools)
            if len(set(combo)) == len(combo)
        ]

    def _satisfied(self, theory, scenario, binding: dict, swallow) -> bool:
        try:
            report = self.logic.check_theory(theory, scenario, binding, evaluator=self.logic.reference_eval)
        except swallow:
            return False
        return report.satisfied

    def _classified(self, scn: str) -> list[tuple[str, dict]]:
        scenario = self._load(scn)
        found = []
        for name in self.library.SHIPPED_SCHEMAS:
            theory = self.library.schema_theory(name)
            for b in self._candidates(theory, scenario):
                if self._satisfied(theory, scenario, b, self.gap_errors):
                    found.append((theory.name, tuple((r, b[r]) for r, _ in theory.roles)))
        return [(schema, dict(roles)) for schema, roles in sorted(found)]

    def _first_satisfying(self, theory, scenario, fixed: dict, swallow) -> tuple[Optional[dict], int]:
        """First candidate binding, in canonical order, that satisfies every
        axiom under the reference evaluator; and how many candidates there were."""
        candidates = [
            b for b in self._candidates(theory, scenario)
            if all(b.get(r) == e for r, e in fixed.items())
        ]
        for b in candidates:
            if self._satisfied(theory, scenario, b, swallow):
                return b, len(candidates)
        return None, len(candidates)

    def _checked(self, ist: str, scn: str, bind: dict):
        theory, scenario = self._load(ist), self._load(scn)
        if all(role in bind for role, _ in theory.roles):
            report = self.logic.check_theory(
                theory, scenario, bind, evaluator=self.logic.reference_eval
            )
            return report.satisfied, bind, 1
        # The CLI's search skips a candidate on any engine error.
        binding, searched = self._first_satisfying(theory, scenario, bind, self.ischema_error)
        return binding is not None, binding, searched

    def _analogy(self, a: str, b: str, schema: str):
        theory = self.library.schema_theory(schema)
        first_a, _ = self._first_satisfying(theory, self._load(a), {}, self.gap_errors)
        if first_a is None:
            return None
        first_b, _ = self._first_satisfying(theory, self._load(b), {}, self.gap_errors)
        return None if first_b is None else (first_a, first_b)

    @staticmethod
    def _grid(info: dict):
        x0, x1, y0, y1 = info["grid"]
        cx, cy, r = (Fraction(v) for v in info["circle"])
        points = [(Fraction(x), Fraction(y)) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
        inside = {p for p in points if (p[0] - cx) ** 2 + (p[1] - cy) ** 2 < r * r}
        return points, inside

    def _model_count(self, info: dict) -> int:
        points, inside = self._grid(info)
        g, i, h = len(points), len(inside), info["steps"]
        o = g - i
        if info["ist"] == "CONTAINMENT.ist":
            return i * g ** (h - 1)
        return o * (g ** (h - 1) - o ** (h - 1))

    def _is_model(self, info: dict, path: list[tuple[Fraction, Fraction]], inside: set) -> bool:
        if info["ist"] == "CONTAINMENT.ist":
            return path[0] in inside
        return path[0] not in inside and any(p in inside for p in path[1:])

    # --- per command -----------------------------------------------------------

    def check(self, kind: str, info: dict, code: int, stdout: str, file_text: Optional[str]) -> Optional[str]:
        try:
            return getattr(self, f"_check_{kind}")(info, code, stdout, file_text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_classify(self, info, code, stdout, _file):
        expected = self._memo(("classify", info["scn"]), lambda: self._classified(info["scn"]))
        doc = {"command": "classify", "results": [{"schema": s, "binding": b} for s, b in expected]}
        if code != 0 or json.loads(stdout) != doc:
            return f"classify {info['scn']}: exit {code}, results differ from the reference evaluator"
        return None

    def _check_classify_text(self, info, code, stdout, _file):
        expected = self._memo(("classify", info["scn"]), lambda: self._classified(info["scn"]))
        lines = [f"{s}: " + ", ".join(f"{r}={e}" for r, e in b.items()) for s, b in expected]
        text = "\n".join(lines or ["no schema instantiations found"]) + "\n"
        if code != 0 or stdout != text:
            return f"classify {info['scn']}: exit {code}, text differs from the reference evaluator"
        return None

    def _check_check(self, info, code, stdout, _file):
        key = ("check", info["ist"], info["scn"], tuple(sorted(info["bind"].items())))
        satisfied, binding, searched = self._memo(
            key, lambda: self._checked(info["ist"], info["scn"], info["bind"])
        )
        doc = json.loads(stdout)
        theory = self._load(info["ist"])
        if code != (0 if satisfied else 1) or doc["satisfied"] != satisfied or doc["theory"] != theory.name:
            return f"check {info['ist']} {info['scn']}: exit {code}, verdict differs from the reference"
        if satisfied:
            ok = doc["binding"] == binding and len(doc["axioms"]) == len(theory.axioms) and all(
                a["satisfied"] for a in doc["axioms"]
            )
        else:
            ok = doc["axioms"] == [] and doc["searched"] == searched and doc["binding"] == info["bind"]
        return None if ok else f"check {info['ist']} {info['scn']}: binding or axioms differ"

    def _check_check_text(self, info, code, stdout, _file):
        key = ("check", info["ist"], info["scn"], tuple(sorted(info["bind"].items())))
        satisfied, _, _ = self._memo(key, lambda: self._checked(info["ist"], info["scn"], info["bind"]))
        verdict = f"result: {'satisfied' if satisfied else 'violated'}"
        if code != (0 if satisfied else 1) or stdout.splitlines()[-1] != verdict:
            return f"check {info['ist']} {info['scn']}: exit {code}, verdict differs from the reference"
        return None

    def _check_analogy(self, info, code, stdout, _file):
        pair = self._memo(("analogy", info["a"], info["b"], info["schema"]),
                          lambda: self._analogy(info["a"], info["b"], info["schema"]))
        doc = {"command": "analogy", "schema": info["schema"], "found": pair is not None}
        if pair is not None:
            doc["bindingA"], doc["bindingB"] = pair
        if code != (0 if pair else 1) or json.loads(stdout) != doc:
            return f"analogy {info['a']} {info['b']} {info['schema']}: exit {code}, differs from the reference"
        return None

    def _check_enumerate_count(self, info, code, stdout, _file):
        count = self._model_count(info)
        if code != 0 or stdout != f"models: {count}\n":
            return f"enumerate {info['scn']}: exit {code}, expected {count} models"
        return None

    def _check_enumerate_text(self, info, code, stdout, _file):
        count = self._model_count(info)
        lines = stdout.splitlines()
        if code != 0 or lines[0] != f"models: {count}" or len(lines) != count + 1:
            return f"enumerate {info['scn']}: exit {code}, expected {count} models"
        return None

    def _check_enumerate_json(self, info, code, stdout, _file):
        count = self._model_count(info)
        doc = json.loads(stdout)
        if code != 0 or doc["count"] != count or len(doc["models"]) != count:
            return f"enumerate {info['scn']}: exit {code}, expected {count} models"
        points, inside = self._grid(info)
        grid = set(points)
        seen = set()
        for model in doc["models"]:
            path = tuple(
                (Fraction(s["values"]["o.x"]), Fraction(s["values"]["o.y"])) for s in model["states"]
            )
            if len(path) != info["steps"] or not set(path) <= grid or not self._is_model(info, path, inside):
                return f"enumerate {info['scn']}: a listed trace is not a model"
            seen.add(path)
        if len(seen) != count:
            return f"enumerate {info['scn']}: listed models repeat"
        return None

    @staticmethod
    def _extent(shape: str, s: dict, eid: str):
        """(bottom, top, left, right) of a body; a floor has no bottom and
        spans every x."""
        x, y = s.get(f"{eid}.x"), s[f"{eid}.y"]
        if shape == "Floor":
            return None, y, None, None
        if shape == "Point":
            return y, y, x, x
        if shape == "Circle":
            r = s[f"{eid}.r"]
            return y - r, y + r, x - r, x + r
        hw, hh = s[f"{eid}.w"] / 2, s[f"{eid}.h"] / 2
        return y - hh, y + hh, x - hw, x + hw

    def _next_state(self, shapes: dict, state: dict, pushes: dict, delta: Fraction) -> dict:
        """One gravity step: pushes apply first; then each body drops by delta,
        clamped at the highest surface top beneath it among the entities it
        overlaps horizontally."""
        pushed = dict(state)
        for eid, dx in pushes.items():
            pushed[f"{eid}.x"] += dx
        extents = {eid: self._extent(shape, pushed, eid) for eid, shape in shapes.items()}
        nxt = dict(pushed)
        for eid, (base, _, left, right) in extents.items():
            if base is None:
                continue
            drop = delta
            for other, (_, surface, o_left, o_right) in extents.items():
                overlaps = o_left is None or (left <= o_right and o_left <= right)
                if other != eid and surface <= base and overlaps:
                    drop = min(drop, base - surface)
            nxt[f"{eid}.y"] -= drop
        return nxt

    def _check_simulate(self, info, code, stdout, file_text):
        text = stdout if file_text is None else file_text
        if code != 0 or (file_text is not None and stdout != ""):
            return f"simulate {info['scn']}: exit {code}"
        doc = json.loads(text)
        states = [{k: Fraction(v) for k, v in s["values"].items()} for s in doc["states"]]
        if doc["length"] != info["steps"] or len(states) != info["steps"]:
            return f"simulate {info['scn']}: trace length {doc['length']}, expected {info['steps']}"
        shapes = {e["id"]: e["shape"] for e in doc["entities"]}
        pushes = {e: Fraction(dx) for e, dx in info["pushes"].items()}
        for t, (prev, cur) in enumerate(zip(states, states[1:]), start=1):
            if cur != self._next_state(shapes, prev, pushes, Fraction(1)):  # every scene has gravity(1)
                return f"simulate {info['scn']}: state {t} differs from the recomputed gravity step"
        return None
