"""Spans around the public functions of each fellbundles module, from outside.

The modules import each other with `from .x import y`, so a function is
bound under its name in every namespace that imported it; install() swaps
the wrapper in wherever the original is found, including dict tables such as
the CLI handler map.  Public methods of the classes each module defines are
wrapped on the class.  Nothing under src/ changes.

A span is (name, layer, start, end, parent, rung, array_bytes, extra):
parent is the index of the enclosing span or -1, rung the id of the command
being run, array_bytes the size of the largest ndarray or subspace basis
passed in or returned, and extra what an observer recorded from the result.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

LAYERS = ("cli", "groups", "matrices", "bundles", "sections", "imprimitivity",
          "duality", "approximation")

NAME, LAYER, START, END, PARENT, RUNG, BYTES, EXTRA = range(8)


def _basis_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    basis = getattr(obj, "basis", None)
    return basis.nbytes if isinstance(basis, np.ndarray) else 0


def _holds_arrays(val) -> bool:
    return _basis_bytes(val) > 0 or (isinstance(val, tuple) and bool(val)
                                     and _basis_bytes(val[0]) > 0)


class Tracer:
    """Records spans in memory; write() dumps them once the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.rung: str | None = None
        self._stack: list[int] = []
        self._array_fields: dict[type, tuple[str, ...]] = {}

    def _bytes_of(self, obj) -> int:
        """An ndarray or subspace basis, or the largest one a dataclass field holds.

        A field may also hold a tuple of subspaces, as a bundle's fibers do.
        Which fields hold arrays is learned from the first instance of each type.
        """
        own = _basis_bytes(obj)
        if own:
            return own
        names = self._array_fields.get(type(obj))
        if names is None:
            fields = getattr(type(obj), "__dataclass_fields__", ())
            names = tuple(f for f in fields if _holds_arrays(getattr(obj, f)))
            self._array_fields[type(obj)] = names
        best = 0
        for name in names:
            val = getattr(obj, name)
            for item in (val if isinstance(val, tuple) else (val,)):
                best = max(best, _basis_bytes(item))
        return best

    def largest_array(self, *objs) -> int:
        """Largest array among objs and, one level down, inside lists, tuples and dicts."""
        best = 0
        for obj in objs:
            if isinstance(obj, (list, tuple)):
                items = obj
            elif isinstance(obj, dict):
                items = obj.values()
            else:
                items = (obj,)
            for item in items:
                best = max(best, self._bytes_of(item))
        return best

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.rung, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:  # inputs count even when the call fails, e.g. over the memory budget
                rec[END] = clock()
                stack.pop()
                rec[BYTES] = max(self.largest_array(*args, *kwargs.values()),
                                 self.largest_array(result))
            if observe is not None:
                rec[EXTRA] = observe(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of the package's layer modules."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}", layer))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]

    def write(self, path: str) -> None:
        """Gzipped JSON; names and rung ids are interned, times in seconds from the first span."""
        names, rungs = {}, {}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[names.setdefault(s[NAME], len(names)), rungs.setdefault(s[RUNG], len(rungs)),
                 round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[BYTES], s[EXTRA]]
                for s in self.spans]
        doc = {"fields": ["name", "rung", "start", "end", "parent", "array_bytes", "extra"],
               "names": list(names), "rungs": list(rungs), "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def outermost(spans, names) -> list[list]:
    """Spans named in `names` with no ancestor also named there (no double counting)."""
    names = set(names)
    under = [False] * len(spans)  # the span or one of its ancestors is named
    out = []
    for i, s in enumerate(spans):
        covered = s[PARENT] >= 0 and under[s[PARENT]]
        under[i] = covered or s[NAME] in names
        if s[NAME] in names and not covered:
            out.append(s)
    return out


# per-layer metrics, computed from the spans of one traced pass

TIMED = {  # metric -> functions whose outermost spans it sums
    "cli.parse_s": ("cli.parse_spec", "cli.parse_action_spec", "cli.parse_gset_spec"),
    "matrices.multiplication_tensor.s": ("matrices.multiplication_tensor",),
    "matrices.center.s": ("matrices.center_dimension", "matrices.center_subspace",
                          "matrices.minimal_central_projections"),
    "matrices.orthonormalize.s": ("matrices.orthonormalize",),
    "bundles.verify_fell_axioms.s": ("bundles.verify_fell_axioms",),
    "bundles.isomorphism.s": ("bundles.bundle_isomorphism_report",
                              "bundles.verify_bundle_isomorphism",
                              "bundles.realization_isomorphism_report"),
    "bundles.construct.s": ("bundles.trivial_bundle", "bundles.pullback", "bundles.restrict",
                            "bundles.semidirect_bundle", "bundles.twisted_semidirect_bundle",
                            "bundles.concretize", "bundles.abstract_from_graded",
                            "bundles.quotient_bundle", "bundles.canonical_multiplier_family"),
    "sections.crossed_product.s": ("sections.crossed_product",),
    "imprimitivity.verify_imprimitivity.s": ("imprimitivity.verify_imprimitivity",),
    "imprimitivity.morita_report.s": ("imprimitivity.morita_report",),
    "imprimitivity.gamma_equivariance_report.s": ("imprimitivity.gamma_equivariance_report",),
    "duality.graded_ideals.s": ("duality.graded_ideals",),
    "duality.olesen_pedersen_forward.s": ("duality.olesen_pedersen_forward",),
    "duality.landstad_reconstruct.s": ("duality.landstad_reconstruct",),
    "approximation.regular_representation_kernel.s": (
        "approximation.regular_representation_kernel",),
    "approximation.amenability_report.s": ("approximation.amenability_report",),
}

COUNTED = {  # metric -> functions whose calls it counts
    "matrices.orthonormalize.calls": ("matrices.orthonormalize",),
    "bundles.verify_fell_axioms.calls": ("bundles.verify_fell_axioms",),
    "sections.components.calls": ("sections.SectionAlgebra.components",),
    "imprimitivity.verify_imprimitivity.calls": ("imprimitivity.verify_imprimitivity",),
    "imprimitivity.element_ops": tuple(f"imprimitivity.{f}" for f in (
        "left_action", "right_action", "linner", "rinner", "b_mul", "c_mul",
        "b_star", "c_star", "gamma", "dual_b", "inflated_dual_c")),
    "imprimitivity.realize.calls": ("imprimitivity.realize_b", "imprimitivity.realize_c"),
    "duality.graded_ideals.calls": ("duality.graded_ideals",),
    "approximation.ep_defect.calls": ("approximation.ep_defect",),
}

ARRAY_LAYERS = ("matrices", "sections", "imprimitivity")

# graded_ideals tries 2^blocks candidates, blocks = minimal central projections found
OBSERVERS = {"duality.graded_ideals": len, "matrices.minimal_central_projections": len}


def summarize(spans) -> dict:
    """Per-layer totals of one traced pass, with the raw counts behind the ideal hit ratio."""
    out: dict[str, float] = {}
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s, t in zip(spans, own):
        out[f"{s[LAYER]}.self_s"] += t
        out[f"{s[LAYER]}.calls"] += 1
    for metric, names in TIMED.items():
        out[metric] = sum(s[END] - s[START] for s in outermost(spans, names))
    for metric, names in COUNTED.items():
        names = set(names)
        out[metric] = sum(1 for s in spans if s[NAME] in names)
    for layer in ARRAY_LAYERS:
        out[f"{layer}.max_array_mb"] = max(
            (s[BYTES] for s in spans if s[LAYER] == layer), default=0) / 2**20
    found = candidates = 0
    blocks = {}
    for s in spans:
        if s[NAME] == "matrices.minimal_central_projections" and s[PARENT] >= 0:
            blocks.setdefault(s[PARENT], s[EXTRA])
    for i, s in enumerate(spans):
        if s[NAME] == "duality.graded_ideals" and s[EXTRA] is not None and i in blocks:
            found += s[EXTRA]
            candidates += 2 ** blocks[i]
    out["duality.ideals_found"] = found
    out["duality.ideal_candidates"] = candidates
    return out
