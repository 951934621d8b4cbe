"""Spans around the functions each layer of dagenum exposes to the next.

The wrappers live here, not in the program: `Tracer.install` replaces each
named function in every loaded dagenum module that holds it (the CLI imports
most of them by name), and `uninstall` puts the originals back.  A span is
(name, start, end, parent index, attributes), kept in memory and written out
at the end.  The parent is the innermost open span of the same thread, so
the sweep blocks that `verify_bounds` hands to its thread pool are roots of
their worker threads; `verify_bounds`' own self time then includes the time
it waits for them.  A generator gets one span per item it produces, so its
self time is the time spent producing items, not the consumer's time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _side(args, kwargs):
    return {"side": args[0] if args else kwargs.get("side")}


def _points(args, kwargs):
    xs = args[0] if args else kwargs["xs"]
    return {"points": int(getattr(xs, "size", 1))}


def _scan(args, kwargs):
    side, _params, p_exp, _quartic, lo, hi = args[:6]
    return {"side": side, "cells": sum(math.ceil(float(i) ** p_exp) for i in range(lo, hi + 1))}


# (layer, module, function, attributes taken from the call's arguments)
TARGETS = [
    ("tables", "dagenum.tables", "diagonal_sequence", None),
    ("tables", "dagenum.tables", "build_table", None),
    ("tables", "dagenum.tables", "extend_table", None),
    ("tables", "dagenum.tables", "save_table", None),
    ("tables", "dagenum.tables", "load_table", None),
    ("airy", "dagenum.asym.airy", "_airy_ai_vec", _points),
    ("bounds", "dagenum.asym.bounds", "_x_row", _side),
    ("bounds", "dagenum.asym.bounds", "_scan_block", _scan),
    ("bounds", "dagenum.asym.bounds", "verify_bounds", _side),
    ("bounds", "dagenum.asym.bounds", "p_ratio_check", None),
    ("scaled", "dagenum.asym.scaled", "build_scaled_table", None),
    ("scaled", "dagenum.asym.scaled", "exact_transform_diagonal", None),
    ("scaled", "dagenum.asym.scaled", "profile_check", None),
    ("predict", "dagenum.asym.predict", "ratio_diagnostic", None),
    ("oracle", "dagenum.oracle", "enumerate_relaxed", None),
    ("oracle", "dagenum.oracle", "enumerate_relaxed_via_paths", None),
    ("oracle", "dagenum.oracle", "count_relaxed_oracle", None),
    ("oracle", "dagenum.oracle", "count_compacted_oracle", None),
    ("oracle", "dagenum.oracle", "count_min_dfa_oracle", None),
    ("bijection", "dagenum.bijection", "tree_to_path", None),
    ("bijection", "dagenum.bijection", "path_to_tree", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict | None) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, attrs]
        with self._lock:  # sweep worker threads share the span list
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn, attrs_of):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is recorded
        as absent instead of failing the run."""
        for layer, mod_name, fn_name, attrs_of in TARGETS:
            try:
                fn = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{layer}.{fn_name}", fn, attrs_of)
            for name, mod in list(sys.modules.items()):
                if name == "dagenum" or name.startswith("dagenum."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time, and summed attributes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, attrs) in enumerate(self.spans):
            key = f"{name}.{attrs['side']}" if attrs and "side" in attrs else name
            rec = out[key]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[idx]
            for a, v in (attrs or {}).items():
                if a != "side":
                    rec[a] += v
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"absent": self.absent}, fh)
            fh.write("\n")
            for name, start, end, parent, attrs in self.spans:
                json.dump({"name": name, "start": start, "end": end, "parent": parent, **(attrs or {})}, fh)
                fh.write("\n")
