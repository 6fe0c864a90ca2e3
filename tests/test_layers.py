"""The package's import layers, read from the source with ``ast``.

The map layer (errors, maps, surfaces, classify, iso, io) imports nothing
from the group layer (groups, cayley); the group layer imports no map-layer
module above surfaces; and no library module imports the CLI.  Inside the
library, darts a map produced are read from its arrays, not through the
checked accessors that serve outside callers.  The value types need no
``dataclasses``, so importing the package and its CLI loads neither it nor
``inspect``.
"""

import ast
import os
import pathlib
import subprocess
import sys

import ribbonsurf
from ribbonsurf import (
    DiscretePath,
    RibbonMap,
    are_isomorphic,
    canonical_encoding,
    classify,
    homotopic,
    map_to_dot,
    parse_graph,
    petal,
    pi1_presentation,
    serialize_graph,
    surface_report,
)
from util import corpus

SRC = pathlib.Path(ribbonsurf.__file__).resolve().parent
MAP_LAYER = {"errors", "maps", "surfaces", "classify", "iso", "io"}
GROUP_LAYER = {"groups", "cayley"}


def sibling_imports(source: str) -> set:
    """Names of the ribbonsurf modules that the module ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ribbonsurf." + module if module else "ribbonsurf"
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted
                     if name.startswith("ribbonsurf."))
    return found


def test_sibling_imports_reads_every_import_form():
    source = ("from . import io as graph_io\nfrom .maps import RibbonMap\n"
              "import ribbonsurf.groups\nfrom ribbonsurf import cayley\n"
              "from ribbonsurf.iso import are_isomorphic\nimport json\n")
    assert sibling_imports(source) == {"io", "maps", "groups", "cayley", "iso"}


def test_import_layers():
    imports = {path.stem: sibling_imports(path.read_text())
               for path in SRC.glob("*.py")}
    assert MAP_LAYER | GROUP_LAYER | {"cli", "__init__"} == set(imports)
    for name in MAP_LAYER:
        assert not imports[name] & GROUP_LAYER, name
    for name in GROUP_LAYER:
        assert not imports[name] & (MAP_LAYER - {"errors", "maps", "surfaces"}), name
    for name, found in imports.items():
        assert name == "__init__" or "cli" not in found, name


def test_library_reads_its_own_darts_without_checked_accessors(monkeypatch):
    maps = [m for _, m in corpus(8, seed=5)] + [petal(2)]

    def refuse(self, dart):
        raise AssertionError("library code called a checked dart accessor")

    for accessor in ("dart_ref", "edge_of", "vertex_of", "next_dart", "iota"):
        monkeypatch.setattr(RibbonMap, accessor, refuse)
    for m in maps:
        assert parse_graph(serialize_graph(m)) == m
        surface_report(m)
        classify(m)
        pi1_presentation(m)
        map_to_dot(m)
        if m.num_edges:
            canonical_encoding(m)
            assert are_isomorphic(m, m) is not None
    commutator, constant = DiscretePath((0, 2, 1, 3)), DiscretePath(start=0)
    assert homotopic(petal(1), commutator, constant)
    assert not homotopic(petal(2), commutator, constant)


def stdlib_imports(source: str) -> set:
    """Top-level names of the absolute imports in the module ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_no_module_imports_dataclasses():
    source = ("from dataclasses import dataclass\nimport dataclasses as dc\n"
              "from . import io\nimport os.path\n")
    assert stdlib_imports(source) == {"dataclasses", "os"}
    for path in SRC.glob("*.py"):
        assert "dataclasses" not in stdlib_imports(path.read_text()), path.name


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, ribbonsurf, ribbonsurf.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
