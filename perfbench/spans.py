"""Spans at gkit's layer boundaries, recorded from outside the library.

The benchmark wraps each layer's public functions (and the names other
modules import directly, such as ``gkit.cohen.witt_add``) with timing
wrappers.  Layers from ``witt`` upward record one span per call: name,
start, end and parent.  ``polys`` and ``basefield`` are called tens of
thousands of times per Cohen multiply, so they are aggregated instead:
a count plus self time per (enclosing span, name).

A call is counted when it enters its layer: for the aggregated layers a
call made from inside the same layer (``poly_gcd`` recursing, ``pow``
calling ``mul``) is folded into the outer call, and for span layers a
function re-entering itself is folded likewise.  Self time is a frame's
duration minus the durations of the counted calls made inside it.
"""

import importlib
import math
import time
from collections import defaultdict

AGGREGATED_LAYERS = ("polys", "basefield")


class Tracer:
    """In-memory span store.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self._stack = []  # frames: [name, layer, start, child_time, span_id]
        self._next_id = 0
        self.spans = []  # (id, name, start, end, parent id or None)
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.by_parent = defaultdict(lambda: [0, 0.0])  # (span id, name) -> [calls, self_s]
        self.counts = defaultdict(float)  # free-form counters set by result hooks

    def _enclosing_span(self):
        return self._stack[-1][4] if self._stack else None

    def call(self, name, fn, args, kwargs, hook=None):
        """Run ``fn`` inside a frame named ``name`` (``layer.what``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = name.split(".", 1)[0]
        aggregate = layer in AGGREGATED_LAYERS
        if self._stack:
            top = self._stack[-1]
            if (aggregate and top[1] == layer) or top[0] == name:
                return fn(*args, **kwargs)
        if aggregate:
            span_id = self._enclosing_span()
        else:
            span_id = self._next_id
            self._next_id += 1
        parent = self._enclosing_span()
        frame = [name, layer, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[2]
            own = duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            tot = self.totals[name]
            tot[0] += 1
            tot[1] += own
            if aggregate:
                agg = self.by_parent[(span_id, name)]
                agg[0] += 1
                agg[1] += own
            else:
                self.spans.append((span_id, name, frame[2], end, parent))
        if hook is not None:
            hook(self, result)
        return result

    def span(self, name, fn, *args):
        """A root-level span around one benchmark op."""
        return self.call(name, fn, args, {})

    def children_of(self, parent_name, child_name):
        """Count spans named ``child_name`` whose parent is named ``parent_name``."""
        names = {sid: name for sid, name, _, _, _ in self.spans}
        return sum(
            1
            for _, name, _, _, parent in self.spans
            if name == child_name and names.get(parent) == parent_name
        )

    def dump(self):
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregated": [
                [sid, name, calls, own] for (sid, name), (calls, own) in self.by_parent.items()
            ],
        }


def gkit_modules():
    """The gkit modules whose names are wrapped, by short name."""
    return {
        name: importlib.import_module(f"gkit.{name}")
        for name in ("polys", "basefield", "witt", "cohen", "base", "units",
                     "greenberg", "cli", "dsl")
    }


def _wrapper(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _max_terms(tracer, result):
    n = len(result.terms)
    if n > tracer.counts["polys.mul.max_terms"]:
        tracer.counts["polys.mul.max_terms"] = n


def _gcd_trivial(tracer, result):
    if result.is_constant():
        tracer.counts["polys.gcd.trivial"] += 1


def _presentation_size(tracer, result):
    tracer.counts["greenberg.symbols"] += len(result.symbols)
    tracer.counts["greenberg.equations"] += len(result.equations)


def _targets(gkit_modules):
    """(owner object, attribute, span name, result hook) for every wrapped name."""
    m = gkit_modules
    polys, basefield, witt, cohen = m["polys"], m["basefield"], m["witt"], m["cohen"]
    base, units, greenberg, cli, dsl = m["base"], m["units"], m["greenberg"], m["cli"], m["dsl"]
    out = [
        (polys.SparsePoly, "mul", "polys.mul", _max_terms),
        (polys, "poly_gcd", "polys.gcd", _gcd_trivial),
        (basefield, "poly_gcd", "polys.gcd", _gcd_trivial),
        (polys, "exact_div", "polys.exact_div", None),
        (basefield, "exact_div", "polys.exact_div", None),
        (polys.SparsePoly, "substitute", "polys.substitute", None),
        (basefield.BaseFieldElem, "__mul__", "basefield.mul", None),
        (basefield.BaseFieldElem, "_combine", "basefield.add", None),
        (basefield.BaseFieldElem, "__pow__", "basefield.pow", None),
        (basefield.BaseFieldElem, "pth_power", "basefield.pow", None),
        (basefield.BaseFieldElem, "inverse", "basefield.inverse", None),
        (basefield.BaseFieldElem, "pth_root", "basefield.root", None),
        (basefield, "pth_root", "basefield.root", None),
        (basefield.BaseFieldElem, "digits", "basefield.digits", None),
        (basefield, "pbasis_expand", "basefield.digits", None),
        (greenberg, "pbasis_expand", "basefield.digits", None),
        (basefield.EtaleAlgebra, "digit_matrix", "basefield.etale", None),
    ]
    for attr in ("__add__", "__sub__", "__mul__", "__pow__", "inverse",
                 "pth_power", "pth_root", "digits"):
        out.append((basefield.EtaleElem, attr, "basefield.etale", None))
    for owner in (witt, cohen):
        out += [
            (owner, "witt_add", "witt.add", None),
            (owner, "witt_mul", "witt.mul", None),
            (owner, "witt_neg", "witt.neg", None),
        ]
    out += [
        (cohen, "to_witt", "cohen.to_witt", None),
        (cohen, "extract", "cohen.extract", None),
        (cohen, "cohen_add", "cohen.arith", None),
        (cohen, "cohen_sub", "cohen.arith", None),
        (cohen, "cohen_mul", "cohen.arith", None),
        (cohen, "cohen_neg", "cohen.arith", None),
        (cohen, "solve_p_division", "cohen.p_division", None),
        (cohen, "cohen_from_int", "cohen.from_int", None),
        (base.BaseElem, "__add__", "base.add", None),
        (base.BaseElem, "__sub__", "base.add", None),
        (base.BaseElem, "__mul__", "base.mul", None),
        (base.BaseElem, "inverse", "base.inverse", None),
        (base.BaseElem, "scale_p", "base.scale_p", None),
        (base.ArtinianBase, "__init__", "base.construct", None),
        (units, "p_power_solve", "units.p_power_solve", None),
        (greenberg, "greenberg_transform", "greenberg.transform", _presentation_size),
        (greenberg.AffinePresentation, "evaluate", "greenberg.evaluate", None),
        (greenberg, "weil_restrict", "greenberg.weil_restrict", None),
        (greenberg, "point_to_coords", "greenberg.point_to_coords", None),
        (greenberg, "coords_to_point", "greenberg.coords_to_point", None),
        (dsl, "parse", "cli.parse", None),
        (cli, "parse", "cli.parse", None),
        (cli, "_emit", "cli.emit", None),
        (cli.Session, "run_command", "cli.command", None),
    ]
    for attr in ("declare_base", "declare_ring", "declare_scheme", "declare_elem"):
        out.append((cli.Session, attr, "cli.declare", None))
    return out


class Installed:
    """Wrappers patched into the gkit modules; ``remove`` restores them."""

    def __init__(self, tracer, gkit_modules):
        self.tracer = tracer
        self._saved = []
        for owner, attr, name, hook in _targets(gkit_modules):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, hook))
        witt = gkit_modules["witt"]
        original = witt.structure_polys
        self._saved.append((witt, "structure_polys", original))
        witt.structure_polys = self._structure_polys(witt, original)

    def _structure_polys(self, witt, original):
        """Hit/miss and build time of the structure-polynomial cache.

        Not a frame: lookups happen inside every Witt op, and their time
        stays in the caller's self time."""
        tracer = self.tracer

        def traced(p, N):
            if not tracer.enabled:
                return original(p, N)
            if (p, N) in witt._cache:
                tracer.counts["witt.structure_polys.hits"] += 1
                return original(p, N)
            tracer.counts["witt.structure_polys.misses"] += 1
            start = tracer.clock()
            try:
                return original(p, N)
            finally:
                tracer.counts["witt.structure_polys.build_s"] += tracer.clock() - start

        return traced

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics under their published names, as (value, unit)."""
    tot, cnt = tracer.totals, tracer.counts
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (tot[name][0], "count")

    def self_s(name):
        out[f"{name}.self_s"] = (tot[name][1], "s")

    for name in ("polys.mul", "polys.gcd", "polys.exact_div"):
        calls(name)
        self_s(name)
    out["polys.mul.max_terms"] = (int(cnt["polys.mul.max_terms"]), "count")
    out["polys.gcd.trivial_ratio"] = (
        _ratio(cnt["polys.gcd.trivial"], tot["polys.gcd"][0]), "1")
    self_s("polys.substitute")
    for name in ("basefield.mul", "basefield.add", "basefield.pow", "basefield.digits"):
        calls(name)
        self_s(name)
    self_s("basefield.etale")
    for name in ("witt.add", "witt.mul", "witt.neg"):
        calls(name)
        self_s(name)
    hits, misses = cnt["witt.structure_polys.hits"], cnt["witt.structure_polys.misses"]
    out["witt.structure_polys.hit_ratio"] = (_ratio(hits, hits + misses), "1")
    out["witt.structure_polys.build_s"] = (cnt["witt.structure_polys.build_s"], "s")
    for name in ("cohen.to_witt", "cohen.extract", "cohen.arith",
                 "cohen.p_division", "cohen.from_int"):
        calls(name)
        self_s(name)
    for name in ("base.mul", "base.add", "base.inverse"):
        calls(name)
        self_s(name)
    self_s("base.scale_p")
    self_s("base.construct")
    calls("units.p_power_solve")
    self_s("units.p_power_solve")
    # each iteration of the solver inverts its running approximation once
    iters = tracer.children_of("units.p_power_solve", "base.inverse")
    out["units.p_power_solve.iters_per_call"] = (
        _ratio(iters, tot["units.p_power_solve"][0]), "count")
    calls("greenberg.transform")
    self_s("greenberg.transform")
    self_s("greenberg.evaluate")
    calls("greenberg.weil_restrict")
    self_s("greenberg.weil_restrict")
    self_s("greenberg.point_to_coords")
    self_s("greenberg.coords_to_point")
    out["greenberg.symbols"] = (int(cnt["greenberg.symbols"]), "count")
    out["greenberg.equations"] = (int(cnt["greenberg.equations"]), "count")
    self_s("cli.parse")
    self_s("cli.declare")
    calls("cli.command")
    self_s("cli.command")
    self_s("cli.emit")
    return out


def _outermost_time(tracer, layers):
    """Time inside spans of ``layers`` during ops, a span nested in another
    of them counted once."""
    by_id = {sid: (name, start, end, parent) for sid, name, start, end, parent in tracer.spans}

    def layer(sid):
        return by_id[sid][0].split(".", 1)[0]

    total = 0.0
    for sid, (name, start, end, parent) in by_id.items():
        if layer(sid) not in layers:
            continue
        while parent is not None and layer(parent) not in layers:
            sid, parent = parent, by_id[parent][3]
        if parent is None and by_id[sid][0].startswith("op."):
            total += end - start
    return total


def predictions(workload, tracer, outcome):
    """Check the layer-to-metric predictions on one traced pass; returns
    (prediction, holds, measured value) triples."""
    op_time = sum(end - start for _, name, start, end, _ in tracer.spans if name.startswith("op."))
    witt_cohen = _outermost_time(tracer, ("witt", "cohen")) / op_time
    field_self = sum(own for name, (_, own) in tracer.totals.items()
                     if name.startswith(("polys.", "basefield."))) / op_time
    symbolic = sum(tracer.totals[name][0] for name in list(tracer.totals)
                   if name.startswith(("greenberg.", "cli.", "polys.substitute")))
    out = []
    if workload == "cohen_k":
        out.append(("witt+cohen spans hold most of the op time", witt_cohen > 0.5, witt_cohen))
        cut = sorted(outcome.latencies)[math.ceil(0.9 * len(outcome.latencies)) - 1]
        tail = {k for k, lat in zip(outcome.kinds, outcome.latencies) if lat >= cut}
        out.append(("the ops at or above p90 are solves",
                    tail <= {"p_power_solve", "base_inverse"}, sorted(tail)))
    elif workload == "greenberg_sym":
        out.append(("witt+cohen spans hold part of the op time", 0 < witt_cohen <= 1,
                    witt_cohen))
    else:
        out.append(("no op time inside witt or cohen", witt_cohen == 0, witt_cohen))
        out.append(("polys+basefield self time is most of the op time", field_self > 0.5,
                    field_self))
    if workload != "greenberg_sym":
        out.append(("no greenberg, cli or substitute calls", symbolic == 0, symbolic))
    else:
        out.append(("greenberg, cli and substitute calls happen", symbolic > 0, symbolic))
    if workload != "field_k":
        built = tracer.counts["witt.structure_polys.build_s"]
        out.append(("set-up builds structure polynomials and bases",
                    built > 0 and tracer.totals["base.construct"][1] > 0, built))
    return out
