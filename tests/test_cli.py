import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ribbonsurf import cli
from ribbonsurf.cli import CommandResult, dispatch, parse_group_spec
from ribbonsurf import (
    InternalInvariantViolation,
    PreconditionError,
    free_presentation,
    from_rotation_lists,
    parse_dart_token,
    parse_word,
    random_filling_map,
    serialize_graph,
    surface_group,
    surface_report,
    trace_faces,
    zxz_presentation,
)
from ribbonsurf.cayley import cayley_ball as real_ball
from ribbonsurf.classify import classify as real_classify

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def run(*argv, expect=0):
    result = dispatch(list(argv))
    assert result.exit_code == expect, (argv, result.exit_code, result.output)
    return result.output


def doc(name):
    return str(DATA / name)


def test_torus_ball_cap_follows_the_group_not_its_spelling():
    # zxz and surface:1 are one presentation, so they share the diamond cap.
    for r in range(32):
        plain = run("cayley", "--group", "zxz", "--radius", str(r))
        assert run("cayley", "--group", "surface:1", "--radius", str(r)) == plain
        if r in (0, 10, 31):
            assert plain.startswith(f"vertices: {2 * r * r + 2 * r + 1}\n")
    for group in ("zxz", "surface:1"):
        assert dispatch(["cayley", "--group", group, "--radius", "32"]) == CommandResult(
            1, f"error: radius 32 is too large for {group}: "
            f"the ball may hold more than {cli._MAX_BALL} elements")


def test_ball_bound_is_the_ball_size():
    for pres in [free_presentation(k) for k in (1, 2, 3)] + [zxz_presentation()]:
        for r in range(5):
            assert cli._ball_bound(pres, r) == real_ball(pres, r).num_vertices


def test_group_spec_grammar():
    assert parse_group_spec("free:2") == free_presentation(2)
    assert parse_group_spec("surface:3") == surface_group(3)
    assert parse_group_spec("zxz") == surface_group(1)
    for bad in ["free", "surface:", "free:x", "free:-2", "heisenberg"]:
        with pytest.raises(PreconditionError):
            parse_group_spec(bad)


def test_validate_ok_and_issues(tmp_path):
    assert run("validate", doc("petal_2.json")) == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text('{"edges": ["a"], "vertices": [{"rotation": ["a+"]}]}')
    out = run("validate", str(bad), expect=1)
    assert "MissingDart" in out
    payload = json.loads(run("validate", str(bad), "--json", expect=1))
    assert payload["ok"] is False and payload["issues"]


def test_faces_genus_report():
    assert run("genus", doc("theta.json")) == "genus: 0"
    assert run("genus", doc("petal_3.json")) == "genus: 3"
    faces = run("faces", doc("theta.json")).splitlines()
    assert len(faces) == 3
    out = run("report", doc("wedge_nested.json"))
    assert "faces: 3" in out and "genus: 0" in out
    payload = json.loads(run("report", doc("petal_2.json"), "--json"))
    assert payload["euler_characteristic"] == -2
    assert payload["face_words"] == [["a+", "b+", "a-", "b-",
                                      "c+", "d+", "c-", "d-"]]


def test_classify_and_replayable_trace():
    out = run("classify", doc("random_g2.json"))
    assert out.splitlines()[0] == "genus: 2"
    payload = json.loads(run("classify", doc("random_g2.json"), "--json"))
    assert payload["genus"] == 2
    assert len(payload["canonical_word"]) == 8
    kinds = {m["move"] for m in payload["moves"]}
    assert kinds <= {"delete", "contract", "cancel", "cut_glue"}


def test_iso_subcommand():
    assert run("iso", doc("petal_1.json"), doc("wedge_interleaved.json")) \
        == "isomorphic: true"
    assert run("iso", doc("wedge_interleaved.json"), doc("wedge_nested.json")) \
        == "isomorphic: false"


def test_pi1_subcommand():
    out = run("pi1", doc("petal_2.json"))
    assert "generators: a b c d" in out
    assert "relator: abABcdCD" in out
    payload = json.loads(run("pi1", doc("theta.json"), "--json"))
    assert payload["generators"] == ["e2", "e3"]
    assert len(payload["relators"]) == 3


def test_trivial_subcommand():
    assert run("trivial", "--group", "surface:2", "abABcdCD") == "trivial: true"
    assert run("trivial", "--group", "surface:2", "abAB") == "trivial: false"
    assert run("trivial", "--group", "zxz", "abAB") == "trivial: true"
    assert run("trivial", "--group", "free:1", "aA") == "trivial: true"
    assert run("trivial", "--group", "free:1", "b", expect=1).startswith("error:")


def test_homotopic_subcommand():
    assert run("homotopic", doc("petal_1.json"), "ab", "ba") == "homotopic: true"
    assert run("homotopic", doc("petal_1.json"), "a", "b") == "homotopic: false"
    assert run("homotopic", doc("petal_2.json"), "abABcdCD", "") \
        == "homotopic: true"
    assert run("homotopic", doc("theta.json"), "e1 e2'", "e1 e3'") \
        == "homotopic: true"


def test_homotopic_reads_uppercase_labels_back(tmp_path):
    # The faces output of a map with edge label A spells A for the label
    # itself, and homotopic reads it back that way.
    path = tmp_path / "upper.json"
    path.write_text(serialize_graph(from_rotation_lists(
        ["A", "b"], [["A+", "b-", "A-", "b+"]])))
    face = run("faces", str(path))
    assert face == "A b A' b'"
    assert run("homotopic", str(path), face, "") == "homotopic: true"


def test_faces_read_back_when_a_compact_word_names_a_label(tmp_path):
    # Over the labels a and A the face a' is not written A, and over a, b
    # and ab the face a b is not written ab: each would read back as an edge.
    for labels, rotations, face in [
            (["a", "A"], [["a+", "a-", "A+", "A-"]], "a'"),
            (["a", "b", "ab"], [["a+", "a-", "b+", "ab+", "b-"], ["ab-"]], "a b")]:
        ribbon_map = from_rotation_lists(labels, rotations)
        path = tmp_path / "clash.json"
        path.write_text(serialize_graph(ribbon_map))
        lines = run("faces", str(path)).splitlines()
        assert face in lines
        assert [parse_word(line, generators=labels) for line in lines] == [
            tuple(word) for word in surface_report(ribbon_map).face_words]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 12), st.integers(0, 10 ** 6))
def test_text_and_json_forms_agree(tmp_path_factory, g, moves, seed):
    ribbon_map = random_filling_map(g, moves, seed)
    labels = ribbon_map.edge_labels
    folder = tmp_path_factory.mktemp("forms")
    path = str(folder / "map.json")
    pathlib.Path(path).write_text(serialize_graph(ribbon_map))

    def both(*argv, expect=0):
        return run(*argv, expect=expect).splitlines(), json.loads(
            run(*argv, "--json", expect=expect))

    def read_back(texts):
        return [parse_word("" if text == "(empty)" else text, generators=labels)
                for text in texts]

    def token_words(words):
        return [tuple(map(parse_dart_token, tokens)) for tokens in words]

    lines, payload = both("faces", path)
    assert read_back(lines) == token_words(payload["faces"])
    lines, payload = both("report", path)
    assert lines[:5] == [f"{key}: {payload[key]}" for key in
                         ("vertices", "edges", "faces", "euler_characteristic", "genus")]
    assert read_back(line.removeprefix("face: ") for line in lines[5:]) \
        == token_words(payload["face_words"])
    lines, payload = both("pi1", path)
    assert lines[0] == "generators: " + (" ".join(payload["generators"]) or "(none)")
    assert lines[1:] == [f"relator: {rel}" for rel in payload["relators"]]
    assert both("validate", path) == (["ok"], {"ok": True, "issues": []})
    broken = json.loads(serialize_graph(ribbon_map))
    if broken["edges"]:
        broken["vertices"][0]["rotation"].pop()
        path = str(folder / "broken.json")
        pathlib.Path(path).write_text(json.dumps(broken))
        lines, payload = both("validate", path, expect=1)
        assert payload["ok"] is False
        assert lines == [f"{i['code']}: {i['message']}" for i in payload["issues"]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 20), st.integers(0, 10 ** 6))
def test_cli_sweep_over_random_maps(tmp_path_factory, g, moves, seed):
    ribbon_map = random_filling_map(g, moves, seed)
    path = str(tmp_path_factory.mktemp("sweep") / "map.json")
    pathlib.Path(path).write_text(serialize_graph(ribbon_map))
    for command in ("validate", "faces", "genus", "report", "classify", "iso", "pi1"):
        argv = [command, path] + ([path] if command == "iso" else [])
        run(*argv)
        run(*argv, "--json")
    run("refine", path)
    run("emit-dot", path)
    face = run("faces", path).splitlines()[0]
    base = (ribbon_map.vertex_of(trace_faces(ribbon_map)[0].darts[0])
            if ribbon_map.num_edges else 0)
    result = dispatch(["homotopic", path, "" if face == "(empty)" else face, "",
                       "--base", str(base)])
    # The solver refuses presentations not in standard form until ROADMAP
    # item 1 (homotopy on every map) removes this allowance.  On the sphere
    # every loop is trivial, so genus 0 is always answered.
    refused = CommandResult(
        1, "error: solver handles free and standard surface presentations only")
    assert result == CommandResult(0, "homotopic: true") or (g and result == refused)


def test_cayley_subcommand():
    assert run("cayley", "--group", "free:2", "--radius", "2") \
        == "vertices: 17\nedges: 16\ncells: 0"
    payload = json.loads(run("cayley", "--group", "zxz", "--radius", "2",
                             "--json"))
    assert len(payload["vertices"]) == 13
    dot = run("cayley", "--group", "free:1", "--radius", "1", "--dot")
    assert dot.startswith("digraph")


def test_generator_subcommands_round_trip(tmp_path):
    text = run("petal", "3")
    p = tmp_path / "p3.json"
    p.write_text(text)
    assert run("genus", str(p)) == "genus: 3"
    text = run("random", "--genus", "1", "--moves", "6", "--seed", "2")
    assert text == run("random", "--genus", "1", "--moves", "6", "--seed", "2")
    r = tmp_path / "r.json"
    r.write_text(text)
    assert run("genus", str(r)) == "genus: 1"


def test_refine_and_emit_dot(tmp_path):
    text = run("refine", doc("petal_1.json"))
    p = tmp_path / "fine.json"
    p.write_text(text)
    assert run("genus", str(p)) == "genus: 1"
    dot = run("emit-dot", doc("theta.json"))
    assert dot.startswith("graph")


def test_exit_codes():
    assert dispatch(["genus", "/nonexistent/x.json"]).exit_code == 1
    assert dispatch(["trivial", "--group", "nope", "a"]).exit_code == 1
    assert dispatch(["genus"]).exit_code == 2
    assert dispatch(["unknown-command"]).exit_code == 2
    assert dispatch([]).exit_code == 2


def test_internal_errors_are_reported_as_bugs(monkeypatch):
    for error in (InternalInvariantViolation, IndexError, KeyError):
        def broken(args, error=error):
            raise error("faces do not partition the darts")

        monkeypatch.setattr(cli, "_run_genus", broken)
        assert dispatch(["genus", doc("theta.json")]) == CommandResult(
            3, f"internal error: {error('faces do not partition the darts')}")


def test_main_writes_the_result_and_exits_with_its_code(monkeypatch, capsys):
    # Usage errors go to stderr and everything else to stdout; a newline is
    # added only when the output lacks one.
    cases = [(CommandResult(0, "genus: 1"), ("genus: 1\n", "")),
             (CommandResult(0, "{}\n"), ("{}\n", "")),
             (CommandResult(0, ""), ("", "")),
             (CommandResult(1, "error: bad"), ("error: bad\n", "")),
             (CommandResult(2, "usage error: bad"), ("", "usage error: bad\n")),
             (CommandResult(3, "internal error: bad"), ("internal error: bad\n", ""))]
    seen = []
    monkeypatch.setattr("sys.argv", ["ribbonsurf", "genus", "x.json"])
    for result, streams in cases:
        monkeypatch.setattr(cli, "dispatch",
                            lambda argv, result=result: seen.append(argv) or result)
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == result.exit_code
        assert capsys.readouterr() == streams
    assert seen == [["genus", "x.json"]] * len(cases)
    monkeypatch.setattr(cli, "dispatch", dispatch)
    for argv, code, streams in [
            (["genus", doc("theta.json")], 0, ("genus: 0\n", "")),
            (["genus"], 2, ("", "usage error: the following arguments are "
                                "required: file\n"))]:
        monkeypatch.setattr("sys.argv", ["ribbonsurf"] + argv)
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == code
        assert capsys.readouterr() == streams


def test_bad_base_vertex_is_a_domain_error():
    for argv, n in [(("pi1", doc("theta.json"), "--base", "9"), 9),
                    (("pi1", doc("theta.json"), "--base", "-1"), -1),
                    (("homotopic", doc("petal_1.json"), "", "", "--base", "3"), 3),
                    (("homotopic", doc("theta.json"), "e1 e2'", "e1 e3'",
                      "--base", "2"), 2)]:
        assert run(*argv, expect=1) == f"error: vertex {n} out of range"


def test_unbounded_requests_are_refused(monkeypatch, tmp_path):
    # The bounds are checked before any work: the map and ball builders, the
    # word parser and classify are replaced by stubs, so no request here is
    # large.  A classify request is refused once its map is read.
    built = []
    small = cli.petal(0)
    monkeypatch.setattr(cli, "classify", lambda m: built.append(("classify", m.num_edges))
                        or real_classify(small))
    monkeypatch.setattr(cli, "random_filling_map",
                        lambda g, moves, seed: built.append((g, moves)) or small)
    monkeypatch.setattr(cli, "petal", lambda g: built.append((g,)) or small)
    monkeypatch.setattr(cli, "cayley_ball",
                        lambda pres, r: built.append(("ball", r)) or real_ball(pres, 0))
    monkeypatch.setattr(cli.graph_io, "parse_word",
                        lambda text, generators: built.append(("word", len(text))) or ())
    moves, genus = cli._MAX_RANDOM_MOVES, cli._MAX_GENUS
    spec, chars, ball = cli._MAX_SPEC, cli._MAX_WORD_CHARS, cli._MAX_BALL
    edges = cli._MAX_CLASSIFY_EDGES
    documents = {}
    for m in (edges, edges + 1):  # planar: m loops, each closing its own face
        star = [f"e{i}{sign}" for i in range(m) for sign in "+-"]
        documents[m] = tmp_path / f"loops_{m}.json"
        documents[m].write_text(serialize_graph(
            from_rotation_lists([f"e{i}" for i in range(m)], [star])))

    def too_big(group, radius):
        return (f"error: radius {radius} is too large for {group}: "
                f"the ball may hold more than {ball} elements")

    # Largest radius served: 2r + 1, 2r^2 + 2r + 1, 1 + 4(3^r - 1)/2 and the
    # free bound 1 + 4g((4g - 1)^r - 1)/(4g - 2) (457 at g = 2, r = 3).  They
    # cover every benchmark request (r <= 2) and acceptance criterion 8.
    largest = {"free:1": (ball - 1) // 2, "zxz": 31, "free:2": 6,
               "surface:2": 3, "surface:3": 3, "free:0": ball,
               f"surface:{spec}": 1}
    refused = [
        (("random", "--genus", "1", "--moves", str(moves + 1)),
         f"error: moves must be <= {moves}"),
        (("random", "--genus", str(genus + 1), "--moves", "0"),
         f"error: genus must be <= {genus}"),
        (("petal", str(genus + 1)), f"error: genus must be <= {genus}"),
        (("trivial", "--group", "free:2", "a" * (chars + 1)),
         f"error: word must be at most {chars} characters"),
        (("trivial", "--group", f"surface:{spec + 1}", "a"),
         f"error: bad group spec 'surface:{spec + 1}': rank and genus must be <= {spec}"),
        (("cayley", "--group", f"free:{spec + 1}", "--radius", "0"),
         f"error: bad group spec 'free:{spec + 1}': rank and genus must be <= {spec}"),
        (("cayley", "--group", "free:0", "--radius", str(ball + 1)),
         f"error: radius must be <= {ball}"),
        (("cayley", "--group", "free:3", "--radius", str(10 ** 30)),
         f"error: radius must be <= {ball}"),
        (("classify", str(documents[edges + 1])),
         f"error: classify takes at most {edges} edges"),
        (("classify", str(documents[edges + 1]), "--json"),
         f"error: classify takes at most {edges} edges"),
    ]
    refused += [(("cayley", "--group", group, "--radius", str(r + 1)),
                 too_big(group, r + 1))
                for group, r in largest.items() if group != "free:0"]
    for argv, message in refused:
        assert dispatch(list(argv)) == CommandResult(1, message)
    assert not built
    run("random", "--genus", str(genus), "--moves", str(moves))
    run("petal", str(genus))
    run("trivial", "--group", f"surface:{spec}", "a" * chars)
    for group, r in largest.items():
        run("cayley", "--group", group, "--radius", str(r))
    run("classify", str(documents[edges]))
    assert built == ([(genus, moves), (genus,), ("word", chars)]
                     + [("ball", r) for r in largest.values()]
                     + [("classify", edges)])


def test_homotopic_words_are_capped_before_the_map_is_read(monkeypatch, tmp_path):
    # Either word over the cap is refused with the map path left unread (it
    # does not exist); words at the cap get past it to the word parser.
    chars = cli._MAX_WORD_CHARS
    parsed = []
    monkeypatch.setattr(cli.graph_io, "parse_word",
                        lambda text, generators: parsed.append(len(text)) or ())
    missing = str(tmp_path / "missing.json")
    refused = f"error: word must be at most {chars} characters"
    for words in (("a" * (chars + 1), ""), ("", "a" * (chars + 1)),
                  ("a" * (chars + 1), "a" * chars)):
        assert dispatch(["homotopic", missing, *words]) == CommandResult(1, refused)
    assert not parsed
    assert run("homotopic", missing, "a" * chars, "", expect=1).startswith(
        f"error: cannot read {missing!r}")
    assert run("homotopic", doc("petal_1.json"), "a" * chars, "a" * chars) \
        == "homotopic: true"
    assert parsed == [chars, chars]


def test_largest_balls_are_served():
    # The costliest requests under the ball cap, built for real: 2r + 1,
    # 2r^2 + 2r + 1 and 1 + 4(3^r - 1)/2 elements, then the largest served
    # surface balls (sizes from the growth series; see test_cayley).
    for group, r, size in [("free:1", 999, 1999), ("zxz", 31, 1985),
                           ("free:2", 6, 1457), ("surface:2", 3, 457),
                           ("surface:3", 3, 1597), ("surface:100", 1, 401)]:
        assert run("cayley", "--group", group, "--radius", str(r)).startswith(
            f"vertices: {size}\n")


def test_largest_classify_is_served(tmp_path):
    # A served random document at the edge cap, classified for real; genus
    # m/4 was among the slowest when the cap was chosen.
    edges = cli._MAX_CLASSIFY_EDGES
    path = tmp_path / "cap.json"
    path.write_text(run("random", "--genus", str(edges // 4),
                        "--moves", str(edges // 2), "--seed", "1"))
    assert f"\nedges: {edges}\n" in run("report", str(path))
    assert run("classify", str(path)).startswith(f"genus: {edges // 4}\n")


def test_module_runs_as_a_script():
    # python -m ribbonsurf.cli runs main(), as the installed script does.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ribbonsurf.cli", "petal", "1"],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.rstrip("\n") == run("petal", "1").rstrip("\n")
    assert json.loads(done.stdout)["name"] == "petal_1"


def test_stdin_input(monkeypatch, capsys):
    import io as stdio
    text = (DATA / "petal_1.json").read_text()
    monkeypatch.setattr("sys.stdin", stdio.StringIO(text))
    assert run("genus", "-") == "genus: 1"


def pinned_requests(tmp_path):
    """Every subcommand, plain and --json, over the shipped documents and
    seeded random ones, plus refusals and domain errors."""
    documents = sorted(str(path) for path in DATA.glob("*.json"))
    requests = []
    for g, moves, seed in [(0, 6, 1), (1, 9, 2), (2, 14, 3), (3, 20, 4)]:
        argv = ["random", "--genus", str(g), "--moves", str(moves), "--seed", str(seed)]
        requests.append(argv)
        path = tmp_path / f"random_{g}.json"
        path.write_text(dispatch(argv).output)
        documents.append(str(path))
    for i, path in enumerate(documents):
        labels = json.loads(pathlib.Path(path).read_text())["edges"]
        pairs = [("", ""), (" ".join(labels[:2]), " ".join(labels[1::-1]))]
        for argv in ([c, path] for c in ("validate", "faces", "genus", "report",
                                         "classify", "pi1")):
            requests += [argv, argv + ["--json"]]
        for argv in ([c, path] for c in ("refine", "emit-dot")):
            requests.append(argv)
        for argv in [["pi1", path, "--base", "1"],
                     ["iso", path, documents[(i + 1) % len(documents)]],
                     *(["homotopic", path, a, b] for a, b in pairs)]:
            requests += [argv, argv + ["--json"]]
    for group in ("free:1", "free:2", "surface:2", "zxz"):
        for word in ("", "aA", "abAB", "abABcdCD"):
            argv = ["trivial", "--group", group, word]
            requests += [argv, argv + ["--json"]]
        for argv in (["cayley", "--group", group, "--radius", "2", flag]
                     for flag in ("--json", "--dot")):
            requests += [argv, argv[:-1]]
    requests += [["petal", str(g)] for g in range(4)]
    requests += [["random", "--genus", "1", "--moves", "100001"],
                 ["petal", "-1"], ["trivial", "--group", "surface:101", "a"],
                 ["cayley", "--group", "free:2", "--radius", "7"],
                 ["genus", "/nonexistent/x.json"], ["trivial", "--group", "nope", "a"]]
    return requests


def test_pinned_cli_bytes(tmp_path, capsys):
    # Captured before the command table and the shared verdict writer, and
    # again when genus-0 homotopic requests began to be answered: only
    # homotopic wedge_nested.json a b b a, plain and --json, changed.
    # argparse writes the help and usage-error text itself, and its wording
    # differs between Python versions, so for those requests only the exit
    # code and the front-end prefix are pinned.
    digest = hashlib.sha256()
    for argv in pinned_requests(tmp_path):
        result = dispatch(argv)
        digest.update(f"{result.exit_code}\0{result.output}\0".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "5952915a4b80496b30817785eb71878400d6473dc2f5e4af006868f827f6f82b")
    for argv, code in [(["--help"], 0), (["genus", "--help"], 0), ([], 2),
                       (["unknown-command"], 2), (["genus"], 2),
                       (["refine", doc("theta.json"), "--json"], 2)]:
        result = dispatch(argv)
        out = capsys.readouterr().out
        assert result.exit_code == code
        if code:
            assert result.output.startswith("usage error: ") and not out
        else:
            assert result.output == "" and out.startswith("usage: ribbonsurf")
