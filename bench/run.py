"""ribbonsurf benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload maps_large --seed 1 --seconds 40 --trace 0

Run from a ribbonsurf checkout; the library is imported from its src/.  The
run sets up the workload's seeded inputs, then sends ops one at a time (one
client, closed loop) until ``--seconds`` have passed, checks every answer
against an independent oracle, and prints one line per metric followed by a
JSON summary as the last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every op both traced and untraced, then sends
the workload's probes (requests known to be refused today) once each, and
reports the per-layer metrics, writing the spans under bench/out/.  See
README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from oracles import WrongAnswer  # noqa: E402
from workloads import WORKLOADS, Groups  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 15
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


def load_library() -> types.SimpleNamespace:
    """Import ribbonsurf from this checkout and gather the calls the
    workloads make, by name, with the layer modules under ``modules``."""
    package = importlib.import_module("ribbonsurf")
    where = Path(package.__file__).resolve().parent
    if where != (SRC / "ribbonsurf").resolve():
        raise SystemExit(f"error: imported ribbonsurf from {where}, not {SRC}")
    modules = {layer: importlib.import_module(f"ribbonsurf.{layer}")
               for layer in list(tracing.LAYERS) + ["cli"]}
    lib = types.SimpleNamespace(
        modules=modules, dispatch=modules["cli"].dispatch,
        free_presentation=package.free_presentation,
        surface_group=package.surface_group,
        zxz_presentation=package.zxz_presentation)
    for layer, names in tracing.LAYERS.items():
        for name in names:
            setattr(lib, name, getattr(modules[layer], name))
    return lib


def _forget_library() -> None:
    for name in [n for n in sys.modules
                 if n == "ribbonsurf" or n.startswith("ribbonsurf.")]:
        del sys.modules[name]


def set_up(workload, seed: int):
    """Import plus input generation, SETUP_REPEATS times; the first repeat
    counts from process start.  Returns the median time and the last
    repeat's library, ops and document directory."""
    times, workdir = [], None
    for repeat in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
            lib = ops = None
            _forget_library()
            gc.collect()
        begin = STARTED if repeat == 0 else time.perf_counter()
        lib = load_library()
        workdir = Path(tempfile.mkdtemp(prefix=f"docs-{workload.name}-", dir=OUT))
        ops = workload.inputs(lib, seed, workdir)
        times.append(time.perf_counter() - begin)
    # Keep the benchmark's own inputs out of the collector's later passes,
    # so the program's garbage collection costs what it would without them.
    gc.collect()
    gc.freeze()
    return statistics.median(times), lib, ops, workdir


class Tally:
    """Latencies, failures and refusal reasons of the ops run so far, and
    the first wrong answer, which ends the run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.failed = 0
        self.reasons = Counter()
        self.wrong = None

    def run(self, lib, run_op, op) -> None:
        start = time.perf_counter()
        try:
            out = run_op(lib, op)
        except Exception as exc:  # an erroring op counts as failed
            self.latencies.append(time.perf_counter() - start)
            if not self.reasons:
                traceback.print_exc()
            reason = f"{type(exc).__name__}: {exc}"
        else:
            self.latencies.append(time.perf_counter() - start)
            try:
                reason = self.workload.check(op, out)
            except WrongAnswer as exc:
                self.wrong = str(exc)
                return
        if reason is not None:
            self.failed += 1
            self.reasons[reason[:120]] += 1


def measure(workload, lib, ops, seconds: float) -> Tally:
    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and tally.wrong is None:
        tally.run(lib, workload.run, ops[i % len(ops)])
        i += 1
    return tally


def measure_traced(workload, lib, ops, seconds: float):
    """Each op twice, traced and untraced, alternating which goes first."""
    tracer = tracing.Tracer()
    traced = tracing.TracedLibrary(lib, tracer)
    run_traced = tracer.wrap("op." + workload.name, workload.run)
    plain, spanned = Tally(workload), Tally(workload)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and plain.wrong is None and spanned.wrong is None:
        op = ops[i % len(ops)]
        for use_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if use_trace:
                tracer.op = i
                traced.install()
                try:
                    spanned.run(traced.lib, run_traced, op)
                finally:
                    traced.uninstall()
            else:
                plain.run(lib, workload.run, op)
        i += 1
    return tracer, plain, spanned


def end_to_end(setup_s: float, tally: Tally):
    """The end-to-end metrics and a note on how each was taken."""
    lat = sorted(tally.latencies)
    n = len(lat)
    op_time = sum(lat)
    if n > TAIL_BEYOND:
        tail, where = lat[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.2f}"
    else:
        tail, where = lat[-1], "max"
    values = {
        "setup_s": (setup_s, f"median of {SETUP_REPEATS} set-ups (import + inputs)"),
        "ops_per_s": (n / op_time, f"{n} ops in {op_time:.2f} s of op time"),
        "op_p50_ms": (statistics.median(lat) * 1e3, f"median of {n} samples"),
        "op_tail_ms": (tail * 1e3, f"{where} of {n} samples, "
                                   f"{min(TAIL_BEYOND, n - 1)} beyond it"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "peak resident set of this process"),
    }
    return {name: (value, END_TO_END_UNITS[name], note)
            for name, (value, note) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ribbonsurf" / "__init__.py").is_file():
        print(f"error: no ribbonsurf sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    setup_s, lib, ops, workdir = set_up(workload, args.seed)
    try:
        if args.trace:
            tracer, plain, spanned = measure_traced(workload, lib, ops, args.seconds)
            tallies = (plain, spanned)
            probes = Tally(workload)
            for op in workload.probes:
                if probes.wrong is None:
                    probes.run(lib, workload.run, op)
        else:
            tallies = (measure(workload, lib, ops, args.seconds),)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = [t.wrong for t in tallies + ((probes,) if args.trace else ())
             if t.wrong is not None]
    if wrong:
        print(f"wrong answer: {wrong[0]}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} ops, {failed} refused or erroring, "
          f"every answer checked and right")
    reasons = sum((t.reasons for t in tallies), Counter())
    for reason, count in reasons.most_common():
        print(f"  refused or erroring x{count}: {reason}")

    if args.trace:
        print(f"{len(probes.latencies)} probes sent, {probes.failed} refused, "
              f"every answer checked and right")
        for reason, count in probes.reasons.most_common():
            print(f"  probe refused x{count}: {reason}")
        overhead = (sum(spanned.latencies) / sum(plain.latencies) - 1) * 100
        criterion_8 = Groups.CRITERION_8 if workload.name == "groups" else ()
        metrics = tracing.per_layer_metrics(
            tracer.spans, probes.failed, overhead, criterion_8)
        spans_file = OUT / f"spans-{workload.name}-s{args.seed}.json"
        tracer.dump(spans_file, {"workload": workload.name, "seed": args.seed})
        print(f"{len(tracer.spans)} spans of {len(spanned.latencies)} traced ops "
              f"written to {spans_file.relative_to(BENCH.parent)}")
        rows = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    else:
        rows = end_to_end(setup_s, tallies[0])
    for name, (value, unit, note) in rows.items():
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}".rstrip())
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in rows.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
