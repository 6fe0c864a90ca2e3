"""The three workloads: seeded inputs, one op each, and its answer check.

Each workload builds a list of ops from its seed during set-up; the run
loop cycles through that list.  ``run`` calls the library through ``lib``
(plain or traced) and returns what the program produced; ``check`` compares
that with an answer known independently (see oracles.py): it returns None
for a right answer and the reason for a refused op, and raises WrongAnswer
for a wrong one.  The list orders interleave input sizes so that the ops completed
before any deadline keep the workload's mix.

No timed op is refused.  Requests the program is known to refuse today are
kept apart as ``probes``: the traced run sends each once, after the timed
loop, checks every answer it gets and counts the refusals (``cli.refused``).
"""

from __future__ import annotations

import json
import random

from oracles import (
    ball_size,
    compact,
    dart_token,
    expect,
    face_orbits,
    generators,
    invariants,
    is_canonical_tokens,
    nontrivial_word,
    trivial_word,
    vertex_numbering,
)

# Bit-reversed order of eight size bins: every prefix of a cycle spreads
# over the whole size range instead of running small inputs first.
BIT_REVERSED_8 = (0, 4, 2, 6, 1, 5, 3, 7)
GOLDEN = 0.6180339887498949


def spot(k: int) -> float:
    """The k-th point of an even, seed-free sequence in [0, 1)."""
    return (k * GOLDEN) % 1.0


def _rotations(doc: dict) -> list:
    return [vertex["rotation"] for vertex in doc["vertices"]]


class MapsLarge:
    """Build, re-read, classify, encode and present large random maps."""

    name = "maps_large"
    # (genus, fewest moves, most moves), taken in turn.
    STRATA = ((3, 40, 200), (10, 40, 200), (24, 20, 60))
    OPS = 6000
    probes = ()

    def inputs(self, lib, seed: int, workdir) -> list:
        """Sizes follow a fixed schedule that covers each stratum evenly;
        the seed picks the maps, so runs differ in inputs, not in load."""
        rng = random.Random(seed)
        ops = []
        for i in range(self.OPS):
            g, low, high = self.STRATA[i % 3]
            size_bin = BIT_REVERSED_8[(i // 3) % 8]
            moves = low + int((size_bin + spot(i // 24)) * (high - low + 1) / 8)
            ops.append((g, min(moves, high), rng.randrange(10 ** 9)))
        return ops

    def run(self, lib, op):
        g, moves, seed = op
        doc = lib.serialize_graph(lib.random_filling_map(g, moves, seed))
        ribbon_map = lib.parse_graph(doc)
        report = lib.surface_report(ribbon_map)
        reduced, _ = lib.reduce_to_one_vertex_one_face(ribbon_map)
        word = lib.polygon_word(reduced)
        canonical, _ = lib.normalize(word)
        labels = list(ribbon_map.edge_labels)
        fresh = [f"q{i}" for i in range(len(labels))]
        random.Random(seed).shuffle(fresh)
        copy = lib.relabeled(ribbon_map, dict(zip(labels, fresh)))
        encodings = (lib.canonical_encoding(ribbon_map),
                     lib.canonical_encoding(copy))
        pres = lib.pi1_presentation(ribbon_map)
        return doc, report, reduced, word, canonical, encodings, pres

    def check(self, op, out):
        g, moves, seed = op
        doc, report, reduced, word, canonical, encodings, pres = out
        where = f"maps_large op g={g} moves={moves} seed={seed}"
        data = json.loads(doc)
        inv = invariants(data["edges"], _rotations(data))
        expect(inv["genus"] == g and inv["edges"] == 2 * g + moves,
               f"{where}: built a map with {inv}")
        got = {"vertices": report.num_vertices, "edges": report.num_edges,
               "faces": report.num_faces,
               "euler_characteristic": report.euler_characteristic,
               "genus": report.genus}
        expect(got == inv, f"{where}: surface_report {got} != {inv}")
        one = invariants(reduced.edge_labels, reduced.rotation_tokens())
        expect((one["vertices"], one["faces"], one["edges"]) == (1, 1, 2 * g),
               f"{where}: reduction left {one}")
        expect(len(word) == 4 * g, f"{where}: polygon word of length {len(word)}")
        expect(is_canonical_tokens(canonical.tokens(), g),
               f"{where}: normalize gave {canonical.tokens()}")
        expect(encodings[0] == encodings[1],
               f"{where}: canonical_encoding differs after relabeling")
        deficiency = len(pres.generators) - len(pres.relators)
        expect(deficiency == 2 * g - 1, f"{where}: pi1 deficiency {deficiency}")
        return None


class CliSmall:
    """In-process ``ribbonsurf.cli.dispatch`` requests over small maps."""

    name = "cli_small"
    MAPS = 48
    TRIVIAL_SPECS = ("free:2", "free:3", "zxz", "surface:2", "surface:3")
    # Small balls only: surface:2 at radius 2 belongs to the groups workload.
    CAYLEY = (("free:1", 0), ("free:1", 1), ("free:1", 2),
              ("free:2", 0), ("free:2", 1), ("free:2", 2),
              ("zxz", 0), ("zxz", 1), ("zxz", 2),
              ("surface:2", 0), ("surface:2", 1))

    @staticmethod
    def _corpus_draw(rng):
        """The distribution of tests/util.corpus: g <= 3 and m <= 12."""
        g = rng.randrange(0, 4)
        return g, rng.randrange(0, 12 - 2 * g + 1), rng.randrange(10 ** 6)

    def inputs(self, lib, seed: int, workdir) -> list:
        rng = random.Random(seed)
        maps = []
        for i in range(self.MAPS):
            g, k, map_seed = self._corpus_draw(rng)
            text = lib.serialize_graph(lib.random_filling_map(g, k, map_seed))
            path = workdir / f"m{i}.json"
            path.write_text(text)
            maps.append((g, json.loads(text), str(path)))

        requests, probes = [], []
        broken = 0
        for i, (g, doc, path) in enumerate(maps):
            edges, rotations = doc["edges"], _rotations(doc)
            inv = invariants(edges, rotations)
            requests += [
                (("validate", path), ("ok",)),
                (("genus", path), ("genus", g)),
                (("report", "--json", path), ("report", inv)),
                (("classify", "--json", path), ("classify", g)),
                (("pi1", "--json", path), ("pi1", 2 * g - 1 if edges else 0)),
            ]
            scrambled = workdir / f"s{i}.json"
            scrambled.write_text(json.dumps(_scramble(doc, rng)))
            requests.append((("iso", path, str(scrambled)), ("iso", True)))
            other = next(p for og, od, p in maps[i + 1:] + maps[:i]
                         if (og, len(od["edges"])) != (g, len(edges)))
            requests.append((("iso", path, other), ("iso", False)))
            if edges:
                face = rng.choice(face_orbits(edges, rotations))
                loop = " ".join(dart_token(edges, d) for d in face)
                base = vertex_numbering(edges, rotations)[face[0]]
                # Refused unless the map's pi1 presentation has standard form.
                probes.append((("homotopic", path, loop, "", "--base", str(base)),
                               ("homotopic", True)))
                if broken < self.MAPS // 2:
                    bad = workdir / f"b{i}.json"
                    bad.write_text(json.dumps(_break(doc, broken)))
                    requests.append((("validate", str(bad)), ("invalid",)))
                    broken += 1
            else:
                requests.append((("homotopic", path, "", ""), ("homotopic", True)))

        for _ in range(self.MAPS):
            g, k, map_seed = self._corpus_draw(rng)
            requests.append((("random", "--genus", str(g), "--moves", str(k),
                              "--seed", str(map_seed)), ("random", g, 2 * g + k)))

        for i in range(self.MAPS):
            spec = self.TRIVIAL_SPECS[i % len(self.TRIVIAL_SPECS)]
            trivial = (i // len(self.TRIVIAL_SPECS)) % 2 == 0
            make = trivial_word if trivial else nontrivial_word
            word = make(spec, rng.randint(2, 16), rng)
            requests.append((("trivial", "--group", spec, compact(word)),
                             ("trivial", trivial)))

        for spec, radius in self.CAYLEY * 2:
            requests.append((("cayley", "--json", "--group", spec,
                              "--radius", str(radius)), ("cayley", spec, radius)))

        petals = {}
        for g in (1, 2, 3):
            path = workdir / f"petal{g}.json"
            path.write_text(json.dumps(_petal_doc(g)))
            petals[g] = str(path)
        for i in range(self.MAPS):
            g = 1 + i % 3
            spec = f"surface:{g}"
            gens = generators(spec)
            word = [(rng.choice(gens), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 6))]
            same = i % 2 == 0
            if same:
                other = list(word)
                at = rng.randrange(len(other) + 1)
                other[at:at] = trivial_word(spec, 1, rng)
            else:
                other = word + [(rng.choice(gens), 1)]
            requests.append((("homotopic", petals[g], compact(word), compact(other)),
                             ("homotopic", same)))

        rng.shuffle(requests)
        self.probes = probes
        return requests

    def run(self, lib, op):
        return lib.dispatch(list(op[0]))

    def check(self, op, result):
        argv, want = op
        kind = want[0]
        where = f"cli_small request {' '.join(argv)!r}"
        out = result.output
        if kind == "invalid":
            expect(result.exit_code == 1 and out.strip() != "ok",
                   f"{where}: broken document passed validation ({result.exit_code})")
            return None
        if result.exit_code == 1 and out.startswith("error:"):
            return f"{argv[0]}: {out.splitlines()[0]}"
        expect(result.exit_code == 0, f"{where}: exit {result.exit_code}: {out[:200]}")
        if kind == "ok":
            expect(out.strip() == "ok", f"{where}: {out[:200]}")
        elif kind in ("genus", "iso", "trivial", "homotopic"):
            value = want[1]
            if isinstance(value, bool):
                value = "true" if value else "false"
            key = "isomorphic" if kind == "iso" else kind
            expect(out.strip() == f"{key}: {value}", f"{where}: {out[:200]}")
        elif kind == "report":
            data = json.loads(out)
            got = {key: data[key] for key in want[1]}
            expect(got == want[1] and len(data["face_words"]) == want[1]["faces"],
                   f"{where}: {got} != {want[1]}")
        elif kind == "classify":
            data = json.loads(out)
            g, word = want[1], data["canonical_word"]
            expect(data["genus"] == g and (word is None if g == 0
                                           else is_canonical_tokens(word, g)),
                   f"{where}: genus {data['genus']}, word {word}")
        elif kind == "pi1":
            data = json.loads(out)
            deficiency = len(data["generators"]) - len(data["relators"])
            expect(deficiency == want[1], f"{where}: deficiency {deficiency}")
        elif kind == "cayley":
            spec, radius = want[1:]
            data = json.loads(out)
            count = len(data["vertices"])
            expect(count == ball_size(spec, radius), f"{where}: {count} vertices")
            if spec.startswith("free:"):
                expect(len(data["edges"]) == count - 1 and not data["cells"],
                       f"{where}: a free ball is a tree")
        elif kind == "random":
            g, m = want[1:]
            data = json.loads(out)
            inv = invariants(data["edges"], _rotations(data))
            expect((inv["genus"], inv["edges"]) == (g, m), f"{where}: built {inv}")
        else:
            raise ValueError(f"unknown expectation {want!r}")
        return None


class Groups:
    """Cayley balls and long words in free, Z x Z and surface groups."""

    name = "groups"
    # Acceptance criterion 8 (free:2 r<=5, zxz r<=10, surface:2 r=1) plus
    # surface:2 r=2 and surface:3 r=1, costliest first.
    BALLS = (("free:2", 5), ("surface:2", 2), ("zxz", 10), ("zxz", 9),
             ("zxz", 8), ("zxz", 7), ("free:2", 4), ("zxz", 6),
             ("surface:3", 1), ("zxz", 5), ("zxz", 4), ("free:2", 3),
             ("surface:2", 1), ("zxz", 3), ("zxz", 2), ("free:2", 2),
             ("zxz", 1), ("free:2", 1), ("zxz", 0), ("free:2", 0))
    CRITERION_8 = tuple([("free:2", r) for r in range(6)]
                        + [("zxz", r) for r in range(11)] + [("surface:2", 1)])
    WORD_SPECS = ("surface:2", "surface:3", "surface:5", "zxz", "free:3")
    WORDS_PER_SPEC = 20     # per pass; sized so words take about a quarter
    MIN_LETTERS, MAX_LETTERS = 200, 3000
    PASSES = 2              # distinct word sets; later passes reuse them
    probes = ()

    def inputs(self, lib, seed: int, workdir) -> list:
        rng = random.Random(seed)
        pres = {"zxz": lib.zxz_presentation()}
        for spec in set(self.WORD_SPECS) | {spec for spec, _ in self.BALLS}:
            kind, _, arg = spec.partition(":")
            if kind == "free":
                pres[spec] = lib.free_presentation(int(arg))
            elif kind == "surface":
                pres[spec] = lib.surface_group(int(arg))
        spread = self.MAX_LETTERS - self.MIN_LETTERS + 1
        words_per_pass = self.WORDS_PER_SPEC * len(self.WORD_SPECS)
        slots = len(self.BALLS) + words_per_pass
        stride = slots // len(self.BALLS)
        ops = []
        for _ in range(self.PASSES):
            words = []
            for i in range(words_per_pass):
                spec = self.WORD_SPECS[i % len(self.WORD_SPECS)]
                j = i // len(self.WORD_SPECS)
                # A fixed, spread-out order of the length bins: the seed
                # picks the words, not their lengths.
                size_bin = (7 * j + 3 * (i % len(self.WORD_SPECS))) % self.WORDS_PER_SPEC
                length = self.MIN_LETTERS + int(
                    (size_bin + spot(len(ops) + i)) * spread / self.WORDS_PER_SPEC)
                trivial = j % 2 == 0
                make = trivial_word if trivial else nontrivial_word
                words.append(("word", spec, tuple(make(spec, length, rng)), trivial))
            # Spread the balls, costliest far apart, among the words.
            ball_at = {(7 * j % len(self.BALLS)) * stride: ball
                       for j, ball in enumerate(self.BALLS)}
            it = iter(words)
            for slot in range(slots):
                ball = ball_at.get(slot)
                ops.append(("ball", ball[0], ball[1], None) if ball else next(it))
        self.presentations = pres
        return ops

    def run(self, lib, op):
        kind, spec, arg, _ = op
        if kind == "ball":
            return lib.cayley_ball(self.presentations[spec], arg)
        return lib.is_trivial_word(arg, self.presentations[spec])

    def check(self, op, out):
        kind, spec, arg, want = op
        if kind == "ball":
            where = f"groups ball {spec} r={arg}"
            count = out.num_vertices
            expect(count == ball_size(spec, arg), f"{where}: {count} vertices")
            if spec.startswith("free:"):
                expect(len(out.edges) == count - 1 and not out.cells,
                       f"{where}: a free ball is a tree")
        else:
            expect(out == want, f"groups word in {spec} of {len(arg)} letters: "
                                f"got {out}, known {want}")
        return None


WORKLOADS = {w.name: w for w in (MapsLarge(), CliSmall(), Groups())}


# -- documents made without the library -----------------------------------------


def _petal_doc(g: int) -> dict:
    """One vertex with rotation a+ b- a- b+ c+ d- c- d+ ...; its face reads
    the standard relator a b a' b' c d c' d' ..."""
    gens = generators(f"surface:{g}")
    rotation = []
    for i in range(0, len(gens), 2):
        a, b = gens[i], gens[i + 1]
        rotation += [a + "+", b + "-", a + "-", b + "+"]
    return {"edges": gens, "vertices": [{"rotation": rotation}]}


def _scramble(doc: dict, rng) -> dict:
    """The same map written differently: renamed labels, shuffled edge and
    vertex order, each rotation list started elsewhere."""
    edges = list(doc["edges"])
    fresh = [f"r{i}" for i in range(len(edges))]
    rng.shuffle(fresh)
    rename = dict(zip(edges, fresh))
    new_edges = [rename[lab] for lab in edges]
    rng.shuffle(new_edges)
    rotations = []
    for row in _rotations(doc):
        row = [rename[tok[:-1]] + tok[-1] for tok in row]
        if row:
            cut = rng.randrange(len(row))
            row = row[cut:] + row[:cut]
        rotations.append(row)
    rng.shuffle(rotations)
    return {"edges": new_edges, "vertices": [{"rotation": r} for r in rotations]}


def _break(doc: dict, kind: int) -> dict:
    """A syntactically valid document that is not a rotation system: a
    dart left out, a dart listed twice, or a dart of an undeclared edge."""
    rotations = [list(row) for row in _rotations(doc)]
    row = next(r for r in rotations if r)
    if kind % 3 == 0:
        row.pop()
    elif kind % 3 == 1:
        rotations[-1].append(row[0])
    else:
        row[0] = "zz9" + row[0][-1]
    return {"edges": list(doc["edges"]),
            "vertices": [{"rotation": r} for r in rotations]}

