"""Command line front end.

Every subcommand builds one deterministic answer.  Commands that produce a
map print it as a byte-stable JSON graph document; the others print their
answer as plain ``key: value`` lines, or with --json as one JSON object.
Exit codes: 0 success, 1 domain error (bad input, failed validation, a
request above a fixed size bound), 2 usage error, 3 internal error (a
failed consistency check or any stray lookup error, an IndexError or a
KeyError: a bug in ribbonsurf, reported as ``internal error: ...``).

The size bounds are checked before any work.  `random` takes at most
100,000 moves, and `random` and `petal` a genus of at most 10,000.  A
group spec takes a rank or genus of at most 100, and `trivial` and
`homotopic` words of at most 100,000 characters.  `cayley` refuses a radius
above 2,000, or one whose ball may hold more than 2,000 elements.  That
size is exact for free groups (2r + 1 at rank 1, 1 + 2k((2k-1)^r - 1)/(2k-2)
at rank k >= 2) and for Z x Z, spelled zxz or surface:1 (2r^2 + 2r + 1);
for surface:g with g >= 2 it is the bound of the free group of rank 2g.
`classify` refuses a map of more than 2,000 edges, once it is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as graph_io
from .cayley import cayley_ball
from .classify import (
    Cancel,
    ContractEdge,
    CutGlue,
    DeleteEdge,
    classify,
    random_filling_map,
)
from .errors import InternalInvariantViolation, PreconditionError, RibbonError
from .groups import (
    DiscretePath,
    Presentation,
    free_presentation,
    homotopic,
    is_trivial_word,
    pi1_presentation,
    surface_group,
    zxz_presentation,
)
from .iso import are_isomorphic
from .maps import refine, validate_rotation_lists
from .surfaces import petal, surface_report


# Largest requests served; larger ones exit 1 before any work.
_MAX_RANDOM_MOVES = 100_000
_MAX_GENUS = 10_000
_MAX_SPEC = 100  # rank or genus of a group spec
_MAX_WORD_CHARS = 100_000
_MAX_BALL = 2_000
_MAX_CLASSIFY_EDGES = 2_000


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    output: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_group_spec(spec: str) -> Presentation:
    """free:<rank>, surface:<genus>, or zxz."""
    if spec == "zxz":
        return zxz_presentation()
    kind, _, arg = spec.partition(":")
    if kind in ("free", "surface") and arg:
        try:
            value = int(arg)
        except ValueError:
            raise PreconditionError(f"bad group spec {spec!r}") from None
        if value < 0:
            raise PreconditionError(f"bad group spec {spec!r}")
        if value > _MAX_SPEC:
            raise PreconditionError(
                f"bad group spec {spec!r}: rank and genus must be <= {_MAX_SPEC}")
        return free_presentation(value) if kind == "free" else surface_group(value)
    raise PreconditionError(
        f"bad group spec {spec!r}: expected free:<rank>, surface:<genus>, or zxz")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path!r}: {exc}") from exc


def _load_map(path: str):
    return graph_io.parse_graph(_read_text(path))


def _json_dump(data) -> str:
    return json.dumps(data, indent=2) + "\n"


_MOVE_NAMES = {DeleteEdge: "delete", ContractEdge: "contract",
               Cancel: "cancel", CutGlue: "cut_glue"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ribbonsurf",
                     description="rotation systems, surfaces, and their groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, run, *, file_arg=True, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if file_arg:
            p.add_argument("file", help="graph document path, or - for stdin")
        if json_flag:
            p.add_argument("--json", action="store_true", dest="as_json")
        return p

    cmd("validate", "check a graph document", _run_validate)
    cmd("faces", "list face boundary words", _run_faces)
    cmd("genus", "genus of the filled surface", _run_genus)
    cmd("report", "full surface report", _run_report)
    cmd("refine", "subdivide every edge at a midpoint", _run_refine,
        json_flag=False)
    cmd("classify", "reduce to the canonical polygon word", _run_classify)
    p = cmd("iso", "compare two maps up to dart relabelling", _run_iso,
            file_arg=False)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p = cmd("pi1", "fundamental group presentation", _run_pi1)
    p.add_argument("--base", type=int, default=0)
    p = cmd("trivial", "decide a word in a supported group", _run_trivial,
            file_arg=False)
    p.add_argument("--group", required=True, help="free:<k>, surface:<g>, zxz")
    p.add_argument("word")
    p = cmd("homotopic", "decide whether two edge paths are homotopic",
            _run_homotopic)
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.add_argument("--base", type=int, default=0)
    p = cmd("cayley", "bounded Cayley complex of a supported group",
            _run_cayley, file_arg=False)
    p.add_argument("--group", required=True, help="free:<k>, surface:<g>, zxz")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p = cmd("petal", "the one-vertex genus-g petal map", _run_petal,
            file_arg=False, json_flag=False)
    p.add_argument("genus", type=int)
    p = cmd("random", "pseudorandom filling map of prescribed genus",
            _run_random, file_arg=False, json_flag=False)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--moves", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    cmd("emit-dot", "Graphviz rendering of a map", _run_emit_dot,
        json_flag=False)
    return parser


def _emit(args, data, lines, code: int = 0) -> CommandResult:
    """A command's one answer, printed as the JSON document ``data`` with
    --json, else as the text ``lines``."""
    if args.as_json:
        return CommandResult(code, _json_dump(data))
    return CommandResult(code, "\n".join(lines))


def _answer(args, key: str, value, **extra) -> CommandResult:
    """One verdict: ``key: value`` with booleans as true/false, or with
    --json the object {key: value, **extra}."""
    return _emit(args, {key: value, **extra}, [f"{key}: {json.dumps(value)}"])


def _run_validate(args) -> CommandResult:
    doc = graph_io.parse_document(_read_text(args.file))
    report = validate_rotation_lists(doc.edges, doc.rotations)
    return _emit(args,
                 {"ok": report.ok,
                  "issues": [{"code": c, "message": m} for c, m in report.issues]},
                 [f"{code}: {message}" for code, message in report.issues] or ["ok"],
                 0 if report.ok else 1)


def _surface(args):
    """The map's surface report and its face words, as token lists and as
    text spelled so that it reads back over the map's labels."""
    ribbon_map = _load_map(args.file)
    report = surface_report(ribbon_map)
    return (report, [[ref.token() for ref in word] for word in report.face_words],
            [graph_io.format_word(word, ribbon_map.edge_labels) or "(empty)"
             for word in report.face_words])


def _run_faces(args) -> CommandResult:
    _, tokens, texts = _surface(args)
    return _emit(args, {"faces": tokens}, texts)


def _run_genus(args) -> CommandResult:
    return _answer(args, "genus", surface_report(_load_map(args.file)).genus)


def _run_report(args) -> CommandResult:
    report, tokens, texts = _surface(args)
    counts = {"vertices": report.num_vertices,
              "edges": report.num_edges,
              "faces": report.num_faces,
              "euler_characteristic": report.euler_characteristic,
              "genus": report.genus}
    return _emit(args, {**counts, "face_words": tokens},
                 [f"{key}: {value}" for key, value in counts.items()]
                 + [f"face: {text}" for text in texts])


def _run_refine(args) -> CommandResult:
    refined = refine(_load_map(args.file))
    return CommandResult(0, graph_io.serialize_graph(refined))


def _run_classify(args) -> CommandResult:
    ribbon_map = _load_map(args.file)
    if ribbon_map.num_edges > _MAX_CLASSIFY_EDGES:
        raise PreconditionError(f"classify takes at most {_MAX_CLASSIFY_EDGES} edges")
    result = classify(ribbon_map)
    word = result.canonical_word
    return _emit(args,
                 {"genus": result.genus,
                  "canonical_word": word.tokens() if word else None,
                  "moves": [{"move": _MOVE_NAMES[type(m)], **vars(m)}
                            for m in result.trace]},
                 [f"genus: {result.genus}",
                  f"canonical_word: {graph_io.format_word(word) if word else 'S0'}",
                  f"moves: {len(result.trace)}"])


def _run_iso(args) -> CommandResult:
    bijection = are_isomorphic(_load_map(args.file_a), _load_map(args.file_b))
    return _answer(args, "isomorphic", bijection is not None,
                   mapping=list(bijection.mapping) if bijection else None)


def _run_pi1(args) -> CommandResult:
    pres = pi1_presentation(_load_map(args.file), base=args.base)
    relators = [graph_io.format_word(rel, pres.generators) or "1"
                for rel in pres.relators]
    return _emit(args,
                 {"generators": list(pres.generators), "relators": relators,
                  "genus_hint": pres.genus_hint},
                 ["generators: " + (" ".join(pres.generators) or "(none)")]
                 + [f"relator: {text}" for text in relators])


def _run_trivial(args) -> CommandResult:
    if len(args.word) > _MAX_WORD_CHARS:
        raise PreconditionError(f"word must be at most {_MAX_WORD_CHARS} characters")
    pres = parse_group_spec(args.group)
    word = graph_io.parse_word(args.word, generators=pres.generators)
    return _answer(args, "trivial", is_trivial_word(word, pres))


def _path_from_word(ribbon_map, text: str, base: int) -> DiscretePath:
    letters = graph_io.parse_word(text, generators=ribbon_map.edge_labels)
    if not letters:
        return DiscretePath((), start=base)
    return DiscretePath(tuple(ribbon_map.dart_index(letter)
                              for letter in letters))


def _run_homotopic(args) -> CommandResult:
    if max(len(args.word_a), len(args.word_b)) > _MAX_WORD_CHARS:
        raise PreconditionError(f"word must be at most {_MAX_WORD_CHARS} characters")
    ribbon_map = _load_map(args.file)
    p1 = _path_from_word(ribbon_map, args.word_a, args.base)
    p2 = _path_from_word(ribbon_map, args.word_b, args.base)
    return _answer(args, "homotopic",
                   homotopic(ribbon_map, p1, p2, base=args.base))


def _ball_bound(pres: Presentation, radius: int) -> int:
    """Elements in the radius ball: the lattice diamond for Z x Z (zxz or
    surface:1), else the ball of the free group of the same rank (exact for
    free groups, an upper bound for surface groups)."""
    if pres.genus_hint == 1:
        return 2 * radius * radius + 2 * radius + 1
    k = len(pres.generators)
    if k < 2:
        return 2 * k * radius + 1
    return 1 + k * ((2 * k - 1) ** radius - 1) // (k - 1)


def _run_cayley(args) -> CommandResult:
    pres = parse_group_spec(args.group)
    if args.radius > _MAX_BALL:
        raise PreconditionError(f"radius must be <= {_MAX_BALL}")
    if _ball_bound(pres, args.radius) > _MAX_BALL:
        raise PreconditionError(
            f"radius {args.radius} is too large for {args.group}: "
            f"the ball may hold more than {_MAX_BALL} elements")
    ball = cayley_ball(pres, args.radius)
    if args.dot:
        return CommandResult(0, graph_io.cayley_ball_to_dot(ball))
    if args.as_json:
        return CommandResult(0, graph_io.cayley_ball_to_json(ball))
    return CommandResult(0, "\n".join([f"vertices: {ball.num_vertices}",
                                       f"edges: {len(ball.edges)}",
                                       f"cells: {len(ball.cells)}"]))


def _check_genus(genus: int) -> None:
    if genus > _MAX_GENUS:
        raise PreconditionError(f"genus must be <= {_MAX_GENUS}")


def _run_petal(args) -> CommandResult:
    if args.genus < 0:
        raise PreconditionError("genus must be >= 0")
    _check_genus(args.genus)
    document = graph_io.serialize_graph(petal(args.genus),
                                        name=f"petal_{args.genus}")
    return CommandResult(0, document)


def _run_random(args) -> CommandResult:
    if args.genus < 0 or args.moves < 0:
        raise PreconditionError("genus and moves must be >= 0")
    _check_genus(args.genus)
    if args.moves > _MAX_RANDOM_MOVES:
        raise PreconditionError(f"moves must be <= {_MAX_RANDOM_MOVES}")
    ribbon_map = random_filling_map(args.genus, args.moves, args.seed)
    name = f"random_g{args.genus}_m{args.moves}_s{args.seed}"
    return CommandResult(0, graph_io.serialize_graph(ribbon_map, name=name))


def _run_emit_dot(args) -> CommandResult:
    return CommandResult(0, graph_io.map_to_dot(_load_map(args.file)))


def dispatch(argv) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(2, f"usage error: {exc}")
    except SystemExit as exc:  # --help
        return CommandResult(exc.code or 0, "")
    try:
        return args.run(args)
    except RibbonError as exc:
        return CommandResult(1, f"error: {exc}")
    except (LookupError, InternalInvariantViolation) as exc:
        return CommandResult(3, f"internal error: {exc}")


def main() -> None:
    result = dispatch(sys.argv[1:])
    if result.output:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        print(result.output, end="" if result.output.endswith("\n") else "\n",
              file=stream)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
