"""Runtime span tracing of bzeta's public functions, from outside the library.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records one span (layer, name, start, end, parent) per call,
and does so everywhere another bzeta module has bound the same function
object: ``betafn`` does ``from .hasse import riemann_zeta``, so both
``hasse.riemann_zeta`` and ``betafn.riemann_zeta`` are replaced.  Spans are
kept in memory and written out when the run ends.

Calls that cross module boundaries through private names are invisible to
this tracer and count as the caller's self time until the library grows its
own trace points.  Examples: ``betafn.b_s_of_one`` calling
``hasse._hasse_core`` and ``betafn._log_series_total`` calling
``hasse._hurwitz_core`` are betafn self time; the catalog entries of
``verify`` are private functions and count as verify self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("exact", "numkernel", "hasse", "betafn", "verify", "cli")


def _public_functions(module):
    """Non-underscore functions defined in module, minus context managers."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", None)):
            continue  # @contextmanager: a span would time only its creation
        out[name] = obj
    return out


class Tracer:
    """Collects spans as lists [layer, name, start_ns, end_ns, parent, result]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [layer, name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            terms = getattr(result, "outer_terms_used", None)
            if terms is not None:
                rec[5] = (terms, bool(result.converged))
            return result

        return traced

    def install(self, package: str = "bzeta") -> None:
        """Wrap each layer's public functions wherever bzeta modules bind them."""
        mods = {
            key: mod
            for key, mod in sys.modules.items()
            if key == package or key.startswith(package + ".")
        }
        wrapped = {}
        for layer in LAYERS:
            mod = mods.get("%s.%s" % (package, layer))
            if mod is None:
                continue
            for name, fn in _public_functions(mod).items():
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_stats(span_sets, n_ops: int) -> dict:
    """Per-layer counts and self times from one or more span lists.

    A span's exclusive time is its duration minus its direct children's;
    a layer's self time is the sum of its spans' exclusive times, which is
    its span time minus the part spent in other layers' spans.  ``calls``
    counts entries into a layer (spans whose parent is in another layer
    or absent), so a public function calling a sibling is one call.
    """
    self_ns = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    terms: list[int] = []
    unconverged = 0
    beta_children = 0
    for spans in span_sets:
        child_ns = [0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child_ns[s[4]] += s[3] - s[2]
        for i, s in enumerate(spans):
            layer = s[0]
            self_ns[layer] += (s[3] - s[2]) - child_ns[i]
            parent_layer = spans[s[4]][0] if s[4] >= 0 else None
            if parent_layer == layer:
                continue
            calls[layer] += 1
            if layer == "hasse" and s[5] is not None:
                terms.append(s[5][0])
                unconverged += not s[5][1]
            if parent_layer == "betafn" and layer in ("hasse", "numkernel"):
                beta_children += 1
    out = {}
    for layer in LAYERS:
        out["%s.calls" % layer] = calls[layer]
        out["%s.self_ms_per_op" % layer] = self_ns[layer] / 1e6 / max(n_ops, 1)
    if terms:
        deciles = statistics.quantiles(terms, n=10) if len(terms) > 1 else terms * 9
        out["hasse.terms_p50"] = statistics.median(terms)
        out["hasse.terms_p90"] = deciles[8]
        out["hasse.unconverged_frac"] = unconverged / len(terms)
    else:
        out["hasse.terms_p50"] = 0
        out["hasse.terms_p90"] = 0
        out["hasse.unconverged_frac"] = 0
    out["betafn.fanout"] = beta_children / calls["betafn"] if calls["betafn"] else 0
    return out
