"""Graph documents, the word grammar, and DOT output.

A graph document is JSON: {"edges": [labels], "vertices": [{"rotation":
[tokens]}], "name": optional, "comment": optional}.  Dart tokens are
"<label>+" / "<label>-".  Canonical serialization fixes that key order,
2-space indentation and a trailing newline, so serialize(parse(x)) is byte
stable.  Reading a document goes through ``maps.from_rotation_lists``, which
checks it; writing one and DOT output read the map's own token table.

Words over generators are written either compactly -- one letter per
generator, uppercase meaning the inverse ("abAB") -- or as space-separated
tokens with a trailing apostrophe for the inverse ("a1 b1 a1' b1'").  A
whole text that names a generator reads as that generator, so over such
generators format_word writes the spaced form instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DocumentSyntaxError, MalformedWordError
from .maps import LABEL_PATTERN, RibbonMap, from_rotation_lists
from .surfaces import trace_faces


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph file: structure plus optional metadata."""

    edges: tuple
    rotations: tuple
    name: Optional[str] = None
    comment: Optional[str] = None


# -- word grammar ------------------------------------------------------------


def parse_word(text: str, generators: Optional[Sequence[str]] = None) -> tuple:
    """Parse a word; with ``generators`` given, single-token labels win over
    the one-letter-per-character reading, and a spaced token naming a
    generator reads as that generator, even a single uppercase letter."""
    text = text.strip()
    if not text:
        return ()
    known = set(generators) if generators is not None else None
    if known is not None and text in known:
        return ((text, 1),)
    letters = []
    if any(ch.isspace() for ch in text) or "'" in text:
        for token in text.split():
            if token.endswith("'"):
                lab, sign = token[:-1], -1
            elif len(token) == 1 and token.isupper() and token not in (known or ()):
                lab, sign = token.lower(), -1
            else:
                lab, sign = token, 1
            if not LABEL_PATTERN.match(lab):
                raise MalformedWordError(f"bad word token {token!r}")
            letters.append((lab, sign))
    else:
        for ch in text:
            if ch.islower():
                letters.append((ch, 1))
            elif ch.isupper():
                letters.append((ch.lower(), -1))
            else:
                raise MalformedWordError(
                    f"bad character {ch!r} in compact word {text!r}")
    return tuple(letters)


def format_word(letters: Sequence, generators: Sequence[str] = ()) -> str:
    """Inverse of parse_word over ``generators``: the compact form when
    possible, unless that text names a generator, which parse_word would
    read as that generator."""
    letters = tuple(letters)
    if not letters:
        return ""
    if all(len(lab) == 1 and lab.islower() for lab, _ in letters):
        text = "".join(lab if sign > 0 else lab.upper() for lab, sign in letters)
        if text not in generators:
            return text
    return " ".join(lab if sign > 0 else lab + "'" for lab, sign in letters)


# -- documents ----------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentSyntaxError(message)


def parse_document(text: str) -> GraphDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(data, dict), "top level must be an object")
    unknown = set(data) - {"edges", "vertices", "name", "comment"}
    _expect(not unknown, f"unknown keys {sorted(unknown)!r}")
    _expect("edges" in data, 'missing "edges"')
    _expect("vertices" in data, 'missing "vertices"')
    edges = data["edges"]
    _expect(isinstance(edges, list) and all(isinstance(e, str) for e in edges),
            '"edges" must be a list of labels')
    verts = data["vertices"]
    _expect(isinstance(verts, list), '"vertices" must be a list')
    rotations = []
    for i, vert in enumerate(verts):
        _expect(isinstance(vert, dict) and set(vert) == {"rotation"},
                f'vertex {i} must be an object with a "rotation" key')
        rot = vert["rotation"]
        _expect(isinstance(rot, list) and all(isinstance(t, str) for t in rot),
                f'vertex {i}: "rotation" must be a list of dart tokens')
        rotations.append(tuple(rot))
    for key in ("name", "comment"):
        if key in data:
            _expect(isinstance(data[key], str), f'"{key}" must be a string')
    return GraphDocument(edges=tuple(edges), rotations=tuple(rotations),
                         name=data.get("name"), comment=data.get("comment"))


def serialize_document(doc: GraphDocument) -> str:
    data = {
        "edges": list(doc.edges),
        "vertices": [{"rotation": list(row)} for row in doc.rotations],
    }
    if doc.name is not None:
        data["name"] = doc.name
    if doc.comment is not None:
        data["comment"] = doc.comment
    return json.dumps(data, indent=2) + "\n"


def parse_graph(text: str) -> RibbonMap:
    """Text of a graph document -> validated map."""
    doc = parse_document(text)
    return from_rotation_lists(doc.edges, doc.rotations)


def serialize_graph(ribbon_map: RibbonMap, name: Optional[str] = None) -> str:
    rotations = tuple(map(tuple, ribbon_map.rotation_tokens()))
    return serialize_document(GraphDocument(ribbon_map.edge_labels, rotations, name))


# -- DOT ----------------------------------------------------------------------


def map_to_dot(ribbon_map: RibbonMap, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    tokens, vertex_of = ribbon_map._tokens(), ribbon_map._vertex_of
    for face in trace_faces(ribbon_map):
        word = " ".join(tokens[d] for d in face.darts)
        lines.append(f"  // face: {word}" if word else "  // face: (empty)")
    for v in range(ribbon_map.num_vertices):
        lines.append(f"  v{v};")
    for k, lab in enumerate(ribbon_map.edge_labels):
        u, w = vertex_of[2 * k], vertex_of[2 * k + 1]
        lines.append(f'  v{u} -- v{w} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _word_name(letters: tuple) -> str:
    return format_word(letters) or "1"


def cayley_ball_to_dot(ball, name: str = "Cayley") -> str:
    lines = [f"digraph {name} {{",
             "  // one arc per positive generator move; inverse arcs implied",
             f"  // cells: one per (base vertex, relator) with its loop inside "
             f"the radius-{ball.radius} ball"]
    for i, word in enumerate(ball.vertices):
        lines.append(f'  n{i} [label="{_word_name(word)}"];')
    for u, gen, v in ball.edges:
        lines.append(f'  n{u} -> n{v} [label="{gen}"];')
    for base, rj, cycle in ball.cells:
        path = " ".join(f"n{i}" for i in cycle)
        lines.append(f"  // cell base=n{base} relator={rj}: {path}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_ball_to_json(ball) -> str:
    pres = ball.presentation
    data = {
        "generators": list(pres.generators),
        "relators": [format_word(rel) for rel in pres.relators],
        "radius": ball.radius,
        "vertices": [_word_name(word) for word in ball.vertices],
        "edges": [[u, gen, v] for u, gen, v in ball.edges],
        "cells": [[base, rj, list(cycle)] for base, rj, cycle in ball.cells],
        "conventions": {
            "edges": "one entry per positive generator move u*g = v; "
                     "the reverse arc along g' is implied",
            "cells": "one per (base vertex, relator index) whose whole "
                     "boundary loop stays inside the ball",
        },
    }
    return json.dumps(data, indent=2) + "\n"
