"""Outside-in tracing of the matchpoly layers.

The library is not edited: public functions are replaced, in every matchpoly
module that binds them by name, with wrappers that record one span per call
(``from .x import f`` copies the reference, so patching only the defining
module would miss callers).  Generators get one span per ``next()``.  Spans
are kept in flat arrays in memory, written out when the run ends, and self
time is computed from them afterwards: a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# Span name -> (module, attribute path, kind).  Names are "<layer>.<function>",
# with the layer named by its module.
TARGETS = {
    "graphs.canonical_code": ("matchpoly.graphs", "Graph.canonical_code", "call"),
    "graphs.delete_vertices": ("matchpoly.graphs", "Graph.delete_vertices", "call"),
    "graphs.enumerate_trees": ("matchpoly.graphs", "enumerate_trees", "gen"),
    "matchcore.matching_polynomial": ("matchpoly.matchcore", "matching_polynomial", "call"),
    "intpoly.root_multiplicity": ("matchpoly.exactalg.intpoly", "root_multiplicity", "call"),
    "factor.factor_irreducible": ("matchpoly.exactalg.factor", "factor_irreducible", "call"),
    "realroots.largest_real_root_interval": (
        "matchpoly.exactalg.realroots",
        "largest_real_root_interval",
        "call",
    ),
    "numberfield.kernel_basis": ("matchpoly.exactalg.numberfield", "kernel_basis", "call"),
    "thetaclass.root_classes": ("matchpoly.thetaclass", "root_classes", "call"),
    "thetaclass.mult_of": ("matchpoly.thetaclass", "mult_of", "call"),
    "thetaclass.theta_partition": ("matchpoly.thetaclass", "theta_partition", "call"),
    "thetaclass.construct_eigenvector": ("matchpoly.thetaclass", "construct_eigenvector", "call"),
    "covers.min_path_cover": ("matchpoly.covers", "min_path_cover", "call"),
    "covers.enumerate_covers": ("matchpoly.covers", "enumerate_covers", "gen"),
    "covers.is_extremal": ("matchpoly.covers", "is_extremal", "call"),
    "sweeps.run_sweep": ("matchpoly.sweeps", "run_sweep", "call"),
}

# Span-name prefix -> layer (module name below the package).
LAYERS = {
    "graphs": "graphs",
    "matchcore": "matchcore",
    "intpoly": "exactalg.intpoly",
    "factor": "exactalg.factor",
    "realroots": "exactalg.realroots",
    "numberfield": "exactalg.numberfield",
    "thetaclass": "thetaclass",
    "covers": "covers",
    "sweeps": "sweeps",
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def rebind(original, replacement) -> int:
    """Point every matchpoly module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "matchpoly" or name.startswith("matchpoly.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap_call(self, name: str, fn, on_result=None):
        fid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_gen(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(fid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                counts[name + ".yielded"] += 1
                yield value

        return traced

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the matchpoly package must already be imported."""
        counts = self.counts

        def degree_sum(key):
            def hook(args, result):
                counts[key] += args[0].degree

            return hook

        def multiplicity(args, result):
            counts["intpoly.root_multiplicity.divisions_ok"] += result
            counts["intpoly.root_multiplicity.divisions"] += result + 1

        def cells(args, result):
            rows = args[0]
            counts["numberfield.kernel_basis.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def extremal(args, result):
            counts["covers.is_extremal.extremal"] += bool(result.verdict)

        hooks = {
            "realroots.largest_real_root_interval": degree_sum(
                "realroots.largest_real_root_interval.degree_sum"
            ),
            "factor.factor_irreducible": degree_sum("factor.factor_irreducible.degree_sum"),
            "intpoly.root_multiplicity": multiplicity,
            "numberfield.kernel_basis": cells,
            "covers.is_extremal": extremal,
        }
        for name, (module, path, kind) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if kind == "gen":
                wrapped = self.wrap_gen(name, original)
            else:
                wrapped = self.wrap_call(name, original, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                rebind(original, wrapped)

    # -- analysis ---------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus direct children) and calls."""
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names = self.names
        fid = self.fid
        for i in range(n):
            name = names[fid[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.fid),
            "arrays": [["name_id", "i"], ["parent", "i"], ["op_id", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
