"""Layer order of the package: each module imports only the modules before
it in numkit -> channel -> observation -> algorithm -> analysis -> bench ->
cli, the order the benchmark reports as layers. A formula moved to another
owner therefore cannot make an import cycle."""

import ast
from collections import Counter
from pathlib import Path

import tsdce

LAYERS = ("numkit", "channel", "observation", "algorithm", "analysis", "bench", "cli")
SRC = Path(tsdce.__file__).resolve().parent


def package_imports(name):
    """The package modules that module ``name`` imports, anywhere in its code."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["tsdce" if node.level else "", node.module]))
            # `from . import x` names modules, `from .x import y` names x
            modules = [f"tsdce.{a.name}" for a in node.names] if module == "tsdce" else [module]
        else:
            continue
        yield from (m.removeprefix("tsdce.") for m in modules if m.startswith("tsdce."))


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(("__init__", *LAYERS))


def test_modules_import_only_lower_layers():
    for layer, name in enumerate(LAYERS):
        for imported in package_imports(name):
            assert LAYERS.index(imported) < layer, f"{name} imports {imported}"
    # the guard reads both forms: `from . import algorithm, analysis` and
    # `from .channel import build_channel, sample_paths`
    assert {"algorithm", "channel"} <= set(package_imports("bench"))


def test_every_top_level_definition_is_used_or_exported():
    # a helper that outlives its last caller shows up here: each top-level
    # function and class is named (as a name, an attribute or an import)
    # somewhere in the package outside its own definition, or exported
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name

    used = Counter(name for tree in trees for name in names(tree))
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in tsdce.__all__
        and used[node.name] == Counter(names(node))[node.name]
    ]
    assert unused == []
