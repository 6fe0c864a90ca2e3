"""Tests of the benchmark itself: seeded inputs, answer checks, metric names.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from oracles import WrongAnswer  # noqa: E402
from workloads import WORKLOADS, CliSmall, Groups, MapsLarge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _inputs(lib, name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    ops = WORKLOADS[name].inputs(lib, seed, workdir)
    docs = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return json.loads(json.dumps(ops).replace(str(workdir), "<docs>")), docs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(lib, name, tmp_path):
    first = _inputs(lib, name, 5, tmp_path)
    assert _inputs(lib, name, 5, tmp_path) == first
    assert _inputs(lib, name, 6, tmp_path) != first


def test_maps_large_check_rejects_wrong_expectations(lib):
    op = (3, 40, 11)
    out = MapsLarge().run(lib, op)
    assert MapsLarge().check(op, out) is None
    for wrong in ((4, 40, 11), (3, 41, 11)):
        with pytest.raises(WrongAnswer):
            MapsLarge().check(wrong, out)


WRONG_CLI_EXPECTATIONS = {
    "ok": lambda want: ("invalid",),
    "invalid": lambda want: ("ok",),
    "genus": lambda want: ("genus", want[1] + 1),
    "report": lambda want: ("report", dict(want[1], faces=want[1]["faces"] + 1)),
    "classify": lambda want: ("classify", want[1] + 1),
    "iso": lambda want: ("iso", not want[1]),
    "pi1": lambda want: ("pi1", want[1] + 1),
    "trivial": lambda want: ("trivial", not want[1]),
    "homotopic": lambda want: ("homotopic", not want[1]),
    "cayley": lambda want: ("cayley", want[1], want[2] + 1),
    "random": lambda want: ("random", want[1] + 1, want[2]),
}


def test_cli_small_checks_reject_wrong_expectations(lib, tmp_path):
    workload = CliSmall()
    ops = workload.inputs(lib, 3, tmp_path)
    seen = set()
    for argv, want in ops:
        if want[0] in seen:
            continue
        result = lib.dispatch(list(argv))
        if workload.check((argv, want), result) is not None:
            continue  # a refusal carries no answer to contradict
        seen.add(want[0])
        with pytest.raises(WrongAnswer):
            workload.check((argv, WRONG_CLI_EXPECTATIONS[want[0]](want)), result)
    assert seen == set(WRONG_CLI_EXPECTATIONS)


def test_cli_small_refuses_only_probes(lib, tmp_path):
    workload = CliSmall()
    ops = workload.inputs(lib, 4, tmp_path)
    assert all(workload.check(op, lib.dispatch(list(op[0]))) is None for op in ops)
    reasons = [workload.check(op, lib.dispatch(list(op[0])))
               for op in workload.probes]
    assert all(op[0][0] == "homotopic" for op in workload.probes)
    assert set(reasons) - {None} == {"homotopic: error: solver handles free "
                                     "and standard surface presentations only"}


def test_groups_checks_reject_wrong_expectations(lib, tmp_path):
    workload = Groups()
    ops = workload.inputs(lib, 3, tmp_path)
    ball = ("ball", "surface:2", 1, None)
    out = workload.run(lib, ball)
    assert workload.check(ball, out) is None
    with pytest.raises(WrongAnswer):
        workload.check(("ball", "surface:2", 2, None), out)
    word = next(op for op in ops if op[0] == "word" and op[1] == "surface:2")
    verdict = workload.run(lib, word)
    assert workload.check(word, verdict) is None
    with pytest.raises(WrongAnswer):
        workload.check(word[:3] + (not word[3],), verdict)


def test_closed_forms_match_criterion_8():
    assert [oracles.ball_size("free:2", r) for r in range(6)] == [1, 5, 17, 53, 161, 485]
    assert oracles.ball_size("zxz", 10) == 221
    assert oracles.ball_size("surface:2", 2) == 65
    assert oracles.ball_size("surface:3", 1) == 13
    with pytest.raises(ValueError):
        oracles.ball_size("surface:2", 4)


def test_known_words():
    rng = random.Random(0)
    for spec in ("free:3", "zxz", "surface:2"):
        word = oracles.trivial_word(spec, 50, rng)
        assert len(word) >= 50
        for lab in oracles.generators(spec):
            assert sum(s for g, s in word if g == lab) == 0
        assert len(oracles.nontrivial_word(spec, 50, rng)) > 50


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    tally = run.Tally(MapsLarge())
    tally.latencies = [i / 1000 for i in range(1, 101)]
    metrics = run.end_to_end(0.5, tally)
    assert metrics["op_tail_ms"][0] == pytest.approx(90.0)
    assert metrics["op_tail_ms"][2].startswith("p90.00 of 100 samples")
    assert metrics["op_p50_ms"][0] == pytest.approx(50.5)


class _AlwaysWrong:
    name = "always_wrong"

    def run(self, lib, op):
        return op

    def check(self, op, out):
        raise WrongAnswer("deliberately wrong")


def test_a_wrong_answer_ends_the_run():
    tally = run.measure(_AlwaysWrong(), None, [1], seconds=60)
    assert tally.wrong == "deliberately wrong"
    assert len(tally.latencies) == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_named_in_benchmark_json(trace, section):
    proc = _bench("--workload", "cli_small", "--seed", "2", "--seconds", "0.3",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines[:-1]
               if line and not line[0].isspace() and " seed=" not in line
               and " spans " not in line and " probes sent" not in line}
    assert printed == set(declared)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "groups", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
