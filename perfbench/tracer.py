"""Outside-in span tracer for the mgale layers.

``Tracer.install()`` wraps every public function of each layer module
(module-level functions without a leading ``_``), plus the constructor
and public methods of each public class, and rebinds every ``mgale.*``
module attribute that refers to the same function object.  Rebinding
matters because ``cli`` and ``transfer`` import names with
``from .x import y``: patching only the defining module would miss
their calls.  ``uninstall()`` puts every original back.

A span records its name, layer, start, end, parent span and whether
the call raised.  Spans stay in memory until the caller writes them.
Private helpers (``_block_average``, ``_lp_norm_array``, ...) are not
wrapped, so their time is charged to the public caller, whichever
layer defines them.

Work counts are read from call arguments, never from results, so an
algorithm change inside a layer does not change them.  A count is taken
only when no other call listed for the same count is already open
(``rio_audit`` inside ``rio_audit_batch`` is not counted twice).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "mgale"
LAYERS = (
    "torus", "martingale", "modulus", "tails", "dilated",
    "davenport", "transfer", "riesz", "symbolic", "cli",
)


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    error: bool = False


# --------------------------------------------------------------------------
# work counts: (metric, function name) -> extractor(bound arguments)
# --------------------------------------------------------------------------

def _shift_evals(a) -> int:
    n = a["samples"].shape[-1]
    shifts = n if a["max_shift"] is None else a["max_shift"]
    return (shifts + 1) * len(a["p_values"])


def _series_coeff_requests(a) -> int:
    fam = a["fn_family"]
    return sum(len((fam(n) if callable(fam) else fam[n]).coeffs) for n in range(len(a["coeffs"])))


def _box_cells(a) -> int:
    return math.prod(a["space"].sizes)


WORK = {
    "torus.render_samples": {"torus.render": lambda a: 2 ** a["J"]},
    "martingale.grid_values": {
        "martingale.rio_audit_batch": lambda a: a["cases"] * 2 ** a["J"],
        "martingale.doob_audit_batch": lambda a: a["cases"] * 2 ** a["J"],
        "martingale.telescope_check": lambda a: a["f"].n_samples,
        "martingale.rio_audit": lambda a: a["f"].n_samples,
        "martingale.doob_maximal_audit": lambda a: a["increments"][0].n_samples,
    },
    "modulus.shift_evals": {"modulus.shift_norm_curve": _shift_evals},
    "dilated.term_evals": {"dilated.series_values_at_points": lambda a: len(a["ints"]) * a["K"]},
    "transfer.steps": {
        "transfer.transfer_apply": lambda a: 1,
        "transfer.transfer_pointwise": lambda a: 1,
        # norms for n = 0..N plus the vanishing test on L^(N+1) f
        "transfer.transfer_decay": lambda a: a["N"] + 1,
        "transfer.lnorm_vs_modulus": lambda a: a["N"],
    },
    "riesz.density_points": {"riesz.riesz_partial_density": lambda a: 2 ** a["J"]},
    "riesz.coeff_requests": {
        "riesz.riesz_fourier_coeff": lambda a: 1,
        "riesz.partial_density_coeffs": lambda a: 3 ** (a["N"] + 1),
        "riesz.riesz_series_run": _series_coeff_requests,
    },
    "riesz.samples": {"riesz.sample_mu": lambda a: a["count"]},
    "davenport.gram_entries": {"davenport.gram_matrix": lambda a: len(a["freqs"]) ** 2},
    "davenport.quadrature_points": {
        "davenport.gram_quadrature": lambda a: len(a["freqs"]) * 2 ** a["J"],
    },
    # filled in at install: every symbolic function with a ``space`` argument
    "symbolic.box_cells": {},
}


class Tracer:
    """Records spans around the public functions of the mgale layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.work = {metric: 0 for metric in WORK}
        self._stack: list[int] = []
        self._metric_open = {metric: 0 for metric in WORK}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrap
    def _wrapper(self, fn, name: str, layer: str, extractors):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = clock()
                stack.pop()

        if not extractors:
            return traced
        sig = inspect.signature(fn)
        work, metric_open = self.work, self._metric_open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for metric, extract in extractors:
                if metric_open[metric] == 0:
                    work[metric] += extract(bound.arguments)
                metric_open[metric] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                for metric, _ in extractors:
                    metric_open[metric] -= 1

        return counted

    def _extractors(self, qualname: str, fn) -> list:
        out = [(metric, table[qualname]) for metric, table in WORK.items() if qualname in table]
        if qualname.startswith("symbolic.") and "space" in inspect.signature(fn).parameters:
            out.append(("symbolic.box_cells", _box_cells))
        return out

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    qual = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self._wrapper(obj, qual, layer, self._extractors(qual, obj)))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # rebind every module attribute that names a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = replaced.get(id(obj), (None, None))
                if original is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            qual = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                new = type(raw)(self._wrapper(fn, qual, layer, self._extractors(qual, fn)))
            elif isinstance(raw, types.FunctionType):
                new = self._wrapper(raw, qual, layer, self._extractors(qual, raw))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def layer_stats(spans: list[Span], layers=LAYERS) -> dict[str, dict[str, float]]:
    """calls, busy_s, self_s and errors per layer.

    ``calls``, ``busy_s`` and ``errors`` count only the outermost span
    of a layer (no ancestor span in the same layer).  ``self_s`` is the
    time during which the layer's span is the innermost open one: each
    span's duration minus its direct children's.  That equals ``busy_s``
    minus the time covered by nested spans of other layers; a layer
    re-entered through another layer gets the inner time as self time
    again, so the self times of all layers sum to the root spans' time.
    """
    stats = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for layer in layers}
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    for i, span in enumerate(spans):
        st = stats.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        dur = span.end_ns - span.start_ns
        st["self_s"] += (dur - child_ns[i]) * 1e-9
        p = span.parent
        while p >= 0 and spans[p].layer != span.layer:
            p = spans[p].parent
        if p < 0:
            st["calls"] += 1
            st["busy_s"] += dur * 1e-9
            st["errors"] += int(span.error)
    return stats
