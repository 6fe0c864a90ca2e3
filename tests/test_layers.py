"""The package's import layers, read from the source with ``ast``.

The map layer (errors, maps, surfaces, classify, iso, io) imports nothing
from the group layer (groups, cayley); the group layer imports no map-layer
module above surfaces; and no library module imports the CLI.
"""

import ast
import pathlib

import ribbonsurf

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
