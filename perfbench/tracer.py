"""Span tracing of the modhull layers, installed from outside the package.

Every public function of the layer modules is replaced by a wrapper at
every module attribute that binds it.  The modules import each other by
name (``from .hyperbola import enumerate_points``), so wrapping only the
defining module would miss the calls made through those bindings.

A span records its name, start, end, parent span and, for a few
functions, a size taken from the arguments or the result.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer figures afterwards.

Which end-to-end figure each layer should move:

- ``hyperbola.enumerate_points``, ``ntheory.batch_mod_inv``, the
  ``hullfast`` figures and ``geometry.convex_hull``: the hull latency and
  records/s on hull-large, and hull-large's peak memory;
- ``ntheory.factorize`` and ``ntheory.arithmetic_profile``: records/s on
  sweep-small; near zero on hull-large until the hull search factors;
- the ``experiments`` figures (cache load and store, records, CSV): the
  warm replay latency and cold records/s on sweep-small.
"""

from __future__ import annotations

import functools
import sys
import time

from workloads import phi

LAYERS = ("ntheory", "hyperbola", "geometry", "hullfast", "experiments", "cli")

# Called several times per enumerated point: a span each would cost more
# than the work it measures.
PER_POINT = frozenset({"hyperbola.apply_symmetry", "geometry.contains_point"})


# name -> size(args, result); the sizes feed the per-layer counts
SIZES = {
    "hyperbola.enumerate_points": lambda args, res: len(res),
    "ntheory.batch_mod_inv": lambda args, res: len(res),
    "hullfast.candidate_points": lambda args, res: (len(res), args[0].m),
    "geometry.convex_hull": lambda args, res: (len(args[0]), len(res.vertices)),
    "ntheory.factorize": lambda args, res: int(args[0]).bit_length(),
    "experiments.run_sweep": lambda args, res: len(res),
}

# Names the per-layer metrics read; a missing one is reported, not fatal.
EXPECTED = (
    "hyperbola.enumerate_points",
    "ntheory.batch_mod_inv",
    "hullfast.candidate_points",
    "hullfast.lower_left_candidates",
    "hullfast.fast_hull",
    "geometry.convex_hull",
    "ntheory.factorize",
    "ntheory.arithmetic_profile",
    "experiments.run_sweep",
    "experiments.compute_record",
    "experiments.records_to_csv",
    "experiments.write_csv",
    "cli.main",
)


class Tracer:
    """In-memory span recorder.  Spans are lists [name, start_ns, end_ns,
    parent_index, size] with parent_index -1 for a root span."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.wrapped: set[str] = set()

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                try:
                    span[4] = size(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature changed; the span keeps no size
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the layer functions of the imported package at every binding
        site.  Returns the EXPECTED names that the package does not define."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"modhull.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                    and name not in PER_POINT
                ):
                    originals[id(obj)] = (obj, self.wrap(name, obj))
                    self.wrapped.add(name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "modhull" or modname.startswith("modhull.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return [n for n in EXPECTED if n not in self.wrapped]


def layer_metrics(spans: list[list], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, per round of the workload, as (value, unit).  Self
    time is a span's duration minus that of its children (calls are
    nested, never overlapping, in one thread)."""
    dur = [s[2] - s[1] for s in spans]
    self_ns = list(dur)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_ns[s[3]] -= dur[i]
            children.setdefault(s[3], []).append(i)

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for s, d, o in zip(spans, dur, self_ns):
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0) + d
        own[s[0]] = own.get(s[0], 0) + o

    def sizes(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    cand = sizes("hullfast.candidate_points")
    hulls = sizes("geometry.convex_hull")
    swept = sum(sizes("experiments.run_sweep"))
    # vertices of the hulls built from candidate sets: a convex_hull call
    # whose parent also called candidate_points
    cand_vertices = 0
    for kids in children.values():
        if any(spans[k][0] == "hullfast.candidate_points" for k in kids):
            cand_vertices += sum(spans[k][4][1] for k in kids if spans[k][0] == "geometry.convex_hull")
    n_cand = sum(c for c, _ in cand)

    per = 1.0 / max(1, rounds)

    def count(x):
        return x * per, "count/round"

    def ms(table, name):
        return table.get(name, 0) * 1e-6 * per, "ms/round"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    out = {
        "hyperbola.enumerate_points.calls": count(calls.get("hyperbola.enumerate_points", 0)),
        "hyperbola.enumerate_points.ms": ms(total, "hyperbola.enumerate_points"),
        "hyperbola.enumerate_points.points": count(sum(sizes("hyperbola.enumerate_points"))),
        "ntheory.batch_mod_inv.calls": count(calls.get("ntheory.batch_mod_inv", 0)),
        "ntheory.batch_mod_inv.ms": ms(total, "ntheory.batch_mod_inv"),
        "ntheory.batch_mod_inv.items": count(sum(sizes("ntheory.batch_mod_inv"))),
        "hullfast.candidate_points.self_ms": ms(own, "hullfast.candidate_points"),
        "hullfast.candidate_points.candidates": count(n_cand),
        "hullfast.lower_left_candidates.calls": count(calls.get("hullfast.lower_left_candidates", 0)),
        "hullfast.lower_left_candidates.ms": ms(total, "hullfast.lower_left_candidates"),
        "hullfast.fast_hull.self_ms": ms(own, "hullfast.fast_hull"),
        "hullfast.candidate_yield": ratio(cand_vertices, n_cand),
        "hullfast.candidates_per_point": ratio(n_cand, sum(phi(m) for _, m in cand)),
        "geometry.convex_hull.calls": count(calls.get("geometry.convex_hull", 0)),
        "geometry.convex_hull.ms": ms(total, "geometry.convex_hull"),
        "geometry.convex_hull.input_points": count(sum(p for p, _ in hulls)),
        "geometry.convex_hull.vertices": count(sum(v for _, v in hulls)),
        "ntheory.factorize.calls": count(calls.get("ntheory.factorize", 0)),
        "ntheory.factorize.ms": ms(total, "ntheory.factorize"),
        "ntheory.factorize.max_bits": (max(sizes("ntheory.factorize"), default=0), "bits"),
        "ntheory.arithmetic_profile.calls": count(calls.get("ntheory.arithmetic_profile", 0)),
        "ntheory.arithmetic_profile.ms": ms(total, "ntheory.arithmetic_profile"),
        "experiments.run_sweep.self_ms": ms(own, "experiments.run_sweep"),
        "experiments.compute_record.calls": count(calls.get("experiments.compute_record", 0)),
        "experiments.compute_record.self_ms": ms(own, "experiments.compute_record"),
        "experiments.records_to_csv.ms": ms(total, "experiments.records_to_csv"),
        "experiments.write_csv.ms": ms(total, "experiments.write_csv"),
        "experiments.cache_hit_frac": ratio(swept - calls.get("experiments.compute_record", 0), swept),
        "cli.main.self_ms": ms(own, "cli.main"),
    }
    layer_self: dict[str, int] = {}
    for name, ns in own.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + ns
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = ms(layer_self, layer)
    out["trace.spans"] = count(len(spans))
    return out
