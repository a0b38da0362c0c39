"""Per-layer tracing of misolab from outside the package.

The tracer replaces functions of the package modules with wrappers that
record one span per call (name, start, end, parent span, request id).
A function imported with `from .x import f` is bound in several modules,
so every binding of the original object is replaced, in every loaded
misolab module and in the `SUITES` table; `install` then checks that no
binding of a wrapped function is left over.  Spans stay in memory and are
written once, at the end of the run.

Scalar arithmetic is counted by a separate `ScalarCounter` pass: a wrapper
on every Scalar operation would inflate the self time of the matrix layer
that calls it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("matrices", "polynomials", "diffcalc", "isometry", "shifts",
          "spectral", "specio", "suites", "cli")
CLI_COMMANDS = ("order", "decompose", "shift", "ortho", "perturb", "verify")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "misolab" or name.startswith("misolab."))]


class _Patcher:
    """Replaces every binding of an object and restores them on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def rebind_everywhere(self, original, replacement):
        """Replace `original` in every package module namespace; returns the count."""
        count = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    count += 1
        return count

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()


class Tracer:
    """Span recorder over the package's layer boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.request_id = -1
        self.quantities = {}
        self._stack = []
        self._patcher = _Patcher()
        self.bindings = {}

    def _wrap(self, span, fn, measure=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        start, end, names, parent, request = (
            self.start, self.end, self.name, self.parent, self.request)
        stack = self._stack
        quantities = self.quantities

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                key, amount = measure(args, result)
                quantities[key] = quantities.get(key, 0) + amount
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every layer, plus the class methods
        and tables the per-layer metrics name."""
        from misolab import cli, matrices, polynomials, suites  # cli loads every layer

        originals = []
        for layer in LAYERS:
            mod = sys.modules[f"misolab.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals.append((f"{layer}.{attr}", obj, _MEASURES.get(f"{layer}.{attr}")))
        for command in CLI_COMMANDS:
            originals.append((f"cli.{command}", getattr(cli, f"_cmd_{command}"), None))
        for name, obj, measure in originals:
            self.bindings[name] = self._patcher.rebind_everywhere(
                obj, self._wrap(name, obj, measure))
        for key, fn in list(suites.SUITES.items()):
            self._patcher.set(suites.SUITES, key, self._wrap(f"suites.{key}", fn))
        op = matrices.DenseOperator
        self._patcher.set(op, "__matmul__", self._wrap(
            "matrices.matmul", op.__matmul__,
            lambda args, _: ("matrices.matmul.entry_mults", args[0].dim ** 3)))
        self._patcher.set(op, "apply", self._wrap("matrices.apply", op.apply))
        self._patcher.set(polynomials.Polynomial, "__call__", self._wrap(
            "polynomials.eval", polynomials.Polynomial.__call__))
        missed = [name for name, count in self.bindings.items() if count == 0]
        missed += _leftover_bindings({id(obj) for _, obj, _ in originals})
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings: {missed}")

    def uninstall(self):
        self._patcher.restore()

    def summary(self):
        """{span name: (calls, total_s, self_s)} from the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += dur - child[i]
        return {name: (calls[i], total[i], self_s[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "request"]}, fh)
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.start[i]:.9f} {self.end[i]:.9f} "
                         f"{self.parent[i]} {self.request[i]}\n")


def _leftover_bindings(original_ids):
    """Places in the package that still hold an unwrapped original: module
    attributes, module-level dict/list/tuple entries and class attributes."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            if isinstance(value, dict):
                items = [(f"{where}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, (list, tuple)):
                items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                items = [(f"{where}.{k}", v) for k, v in vars(value).items()]
            else:
                items = [(where, value)]
            found += [name for name, v in items if id(v) in original_ids]
    return found


def _strict_order_m(args, result):
    return "isometry.strict_order.orders_scanned", result.m


def _window(args, result):
    return "diffcalc.difference_table.samples", args[0].window_len


_MEASURES = {
    "isometry.strict_order": _strict_order_m,
    "diffcalc.difference_table": _window,
}


class ScalarCounter:
    """Counts Scalar additions/subtractions, products and quotients per mode."""

    _OPS = {"__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
            "__rsub__": "addsub", "__mul__": "mul", "__rmul__": "mul",
            "__truediv__": "div"}

    def __init__(self):
        self.counts = {f"scalars.{mode}_{op}.calls": 0
                       for mode in ("exact", "float") for op in ("mul", "addsub", "div")}
        self._patcher = _Patcher()

    def install(self):
        from misolab.scalars import EXACT, Scalar

        counts = self.counts
        for attr, op in self._OPS.items():
            fn = Scalar.__dict__[attr]
            exact_key, float_key = f"scalars.exact_{op}.calls", f"scalars.float_{op}.calls"

            def counted(self_, other, _fn=fn, _ek=exact_key, _fk=float_key):
                key = _ek if self_.mode == EXACT else _fk
                counts[key] += 1
                return _fn(self_, other)

            self._patcher.set(Scalar, attr, counted)

    def uninstall(self):
        self._patcher.restore()
