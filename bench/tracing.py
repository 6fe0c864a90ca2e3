"""Spans at the layer boundaries, recorded from outside the program.

A traced run wraps the public functions the benchmark calls, and those the
CLI module calls, in span recorders.  A span is [name, start_ns, end_ns,
parent index, op id, counts]; spans stay in memory until the run ends.  A
layer's self time is its span time minus the time its child spans cover.
Counts (darts, faces, moves, roots, ball vertices, letters) are read off the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import json
import types
from time import perf_counter_ns

# Public calls the benchmark and the CLI make, by layer module.
LAYERS = {
    "maps": ("relabeled", "validate_rotation_lists"),
    "surfaces": ("surface_report",),
    "classify": ("random_filling_map", "reduce_to_one_vertex_one_face",
                 "polygon_word", "normalize", "classify"),
    "iso": ("canonical_encoding", "are_isomorphic"),
    "groups": ("pi1_presentation", "is_trivial_word", "homotopic"),
    "cayley": ("cayley_ball",),
    "io": ("serialize_graph", "parse_graph", "parse_document", "parse_word",
           "cayley_ball_to_json"),
}
CLI_COMMANDS = ("random", "validate", "genus", "report", "classify", "iso",
                "pi1", "trivial", "cayley", "homotopic")
BALL_SPECS = ("free1", "free2", "zxz", "surface2", "surface3")
MOVE_KINDS = {"DeleteEdge": "delete", "ContractEdge": "contract",
              "Cancel": "cancel", "CutGlue": "cut_glue"}


def group_name(pres) -> str:
    """free<k>, zxz or surface<g> for the presentations the workloads use."""
    n = len(pres.generators)
    if not pres.relators:
        return f"free{n}"
    return "zxz" if n == 2 else f"surface{n // 2}"


def solver_name(pres) -> str:
    if not pres.relators:
        return "free"
    return "abelian" if len(pres.generators) == 2 else "dehn"


def _moves(trace) -> dict:
    counts = dict.fromkeys(MOVE_KINDS.values(), 0)
    for move in trace:
        counts[MOVE_KINDS[type(move).__name__]] += 1
    return counts


def _ball_counts(args, ball) -> dict:
    alphabet = 2 * len(ball.presentation.generators)
    candidates = alphabet * sum(len(w) < ball.radius for w in ball.vertices)
    return {"vertices": ball.num_vertices, "candidates": candidates,
            "new": ball.num_vertices - 1, "radius": ball.radius}


# name: span name, or a function of the call's arguments giving it;
# counts: function of (args, result) giving the span's counts.
SPAN_RULES = {
    "cayley_ball": (lambda pres, radius: "cayley.cayley_ball." + group_name(pres),
                    _ball_counts),
    "is_trivial_word": (lambda word, pres: "groups.is_trivial_word." + solver_name(pres),
                        lambda args, _: {"letters": len(args[0])}),
    "parse_graph": (None, lambda _, m: {"darts": m.num_darts}),
    "surface_report": (None, lambda _, r: {"faces": r.num_faces}),
    "canonical_encoding": (None, lambda args, _: {"roots": args[0].num_darts}),
    "reduce_to_one_vertex_one_face": (None, lambda _, r: _moves(r[1])),
    "normalize": (None, lambda _, r: _moves(r[1])),
    "classify": (None, lambda _, r: _moves(r.trace)),
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    def wrap(self, name, fn, counts=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            record = [label, 0, 0, open_spans[-1] if open_spans else -1, self.op, None]
            open_spans.append(len(spans))
            spans.append(record)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                record[1] = start
                open_spans.pop()
            if counts is not None:
                record[5] = counts(args, result)
            return result

        return traced

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as out:
            json.dump(dict(header, fields=["name", "start_ns", "end_ns", "parent",
                                           "op", "counts"], spans=self.spans), out)


class TracedLibrary:
    """A traced twin of a plain library namespace, plus the patch that makes
    the CLI module call traced functions while a traced op runs."""

    def __init__(self, lib, tracer: Tracer):
        self.lib = types.SimpleNamespace(**vars(lib))
        wrapped = {}
        for layer, names in LAYERS.items():
            module = lib.modules[layer]
            for name in names:
                original = getattr(module, name)
                rule_name, counts = SPAN_RULES.get(name, (None, None))
                wrapped[name] = (original, tracer.wrap(
                    rule_name or f"{layer}.{name}", original, counts))
                setattr(self.lib, name, wrapped[name][1])
        self.lib.dispatch = tracer.wrap(lambda argv: "cli.dispatch." + argv[0],
                                        lib.dispatch)
        cli = lib.modules["cli"]
        io_proxy = types.SimpleNamespace(**vars(lib.modules["io"]))
        for name in LAYERS["io"]:
            setattr(io_proxy, name, wrapped[name][1])
        self._cli = cli
        self._patch = {"graph_io": io_proxy}
        self._patch.update({name: traced for name, (original, traced)
                            in wrapped.items()
                            if getattr(cli, name, None) is original})
        self._plain = {name: getattr(cli, name) for name in self._patch}

    def install(self) -> None:
        for name, value in self._patch.items():
            setattr(self._cli, name, value)

    def uninstall(self) -> None:
        for name, value in self._plain.items():
            setattr(self._cli, name, value)


def layer_totals(spans) -> dict:
    """name -> [calls, self_ns, summed counts] over all spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0, {}])
        entry[0] += 1
        entry[1] += end - start - child_ns[i]
        for key, value in (counts or {}).items():
            entry[2][key] = entry[2].get(key, 0) + value
    return totals


def _ms_per_call(totals, name) -> float:
    calls, self_ns, _ = totals.get(name, (0, 0, {}))
    return self_ns / calls / 1e6 if calls else 0.0


def _sum(totals, names, key) -> float:
    return sum(totals.get(n, (0, 0, {}))[2].get(key, 0) for n in names)


def _calls(totals, names) -> int:
    return sum(totals.get(n, (0, 0, {}))[0] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TIMED_SPANS = [f"{layer}.{name}" for layer, names in LAYERS.items()
               for name in names if name not in ("cayley_ball", "is_trivial_word")]
TIMED_SPANS += [f"groups.is_trivial_word.{k}" for k in ("free", "abelian", "dehn")]
TIMED_SPANS += [f"cayley.cayley_ball.{spec}" for spec in BALL_SPECS]
TIMED_SPANS += [f"cli.dispatch.{cmd}" for cmd in CLI_COMMANDS]


def per_layer_metrics(spans, refused: int, overhead_pct: float,
                      criterion_8) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; 0 where the
    workload does not use the layer."""
    t = layer_totals(spans)
    out = {f"{name}.ms": (_ms_per_call(t, name), "ms") for name in TIMED_SPANS}
    for cmd in CLI_COMMANDS:
        out[f"cli.dispatch.{cmd}.calls"] = (_calls(t, [f"cli.dispatch.{cmd}"]), "count")

    reduce_name = "classify.reduce_to_one_vertex_one_face"
    classifiers = [reduce_name, "classify.classify"]
    maps_classified = _calls(t, classifiers)
    map_moves = _sum(t, [reduce_name], "delete") + _sum(t, [reduce_name], "contract")
    out["classify.reduce.us_per_move"] = (
        _ratio(t.get(reduce_name, (0, 0))[1] / 1e3, map_moves), "us")
    movers = classifiers + ["classify.normalize"]
    for kind in MOVE_KINDS.values():
        out[f"classify.moves.{kind}"] = (
            _ratio(_sum(t, movers, kind), maps_classified), "count")

    out["iso.roots"] = (_ratio(_sum(t, ["iso.canonical_encoding"], "roots"),
                               _calls(t, ["iso.canonical_encoding"])), "count")
    out["maps.darts"] = (_ratio(_sum(t, ["io.parse_graph"], "darts"),
                                _calls(t, ["io.parse_graph"])), "count")
    out["surfaces.faces"] = (_ratio(_sum(t, ["surfaces.surface_report"], "faces"),
                                    _calls(t, ["surfaces.surface_report"])), "count")

    balls = [f"cayley.cayley_ball.{spec}" for spec in BALL_SPECS]
    out["cayley.vertices"] = (_ratio(_sum(t, balls, "vertices"), _calls(t, balls)),
                              "count")
    out["cayley.candidates"] = (_ratio(_sum(t, balls, "candidates"), _calls(t, balls)),
                                "count")
    out["cayley.new_per_candidate"] = (
        _ratio(_sum(t, balls, "new"), _sum(t, balls, "candidates")), "ratio")

    solvers = [f"groups.is_trivial_word.{k}" for k in ("free", "abelian", "dehn")]
    out["groups.letters"] = (_ratio(_sum(t, solvers, "letters"), _calls(t, solvers)),
                             "count")
    dehn = "groups.is_trivial_word.dehn"
    out["groups.dehn.letters_per_ms"] = (
        _ratio(_sum(t, [dehn], "letters"), t.get(dehn, (0, 0))[1] / 1e6), "1/ms")

    out["cli.refused"] = (refused, "count")
    out["cayley.criterion8_s"] = (criterion_8_seconds(spans, criterion_8), "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def criterion_8_seconds(spans, balls) -> float:
    """Sum over the criterion-8 balls of each ball's mean traced time; 0
    unless every one of them ran."""
    times = {}
    for name, start, end, _, _, counts in spans:
        if name.startswith("cayley.cayley_ball.") and counts:
            key = (name.rsplit(".", 1)[1], counts["radius"])
            times.setdefault(key, []).append(end - start)
    wanted = [(spec.replace(":", ""), r) for spec, r in balls]
    if not wanted or any(key not in times for key in wanted):
        return 0.0
    return sum(sum(times[k]) / len(times[k]) for k in wanted) / 1e9
