"""The package's import layout, read from its source: the modules of
`wrice` import each other without a cycle, and no function imports anything
but the two projectors, which load `scipy.sparse` when they first build so
that only the verbs that extract pay for it."""

import ast
from pathlib import Path

import wrice

PACKAGE = Path(wrice.__file__).parent
FUNCTION_IMPORTS = {("features", "mel_projector", "scipy.sparse"),
                    ("features", "chroma_projector", "scipy.sparse")}


def parsed_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement names, in absolute form."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module:
        return [f"wrice.{node.module}"]
    return [f"wrice.{alias.name}" for alias in node.names]  # `from . import x`


def package_edges(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """For each module, the package modules it imports at any level; a
    `from . import name` of a name that is not a module imports `__init__`."""
    edges = {}
    for name, tree in modules.items():
        edges[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in imported_modules(node):
                    if target.startswith("wrice."):
                        short = target.split(".")[1]
                        edges[name].add(short if short in modules else "__init__")
    return edges


def function_imports(modules: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, innermost enclosing function, imported module) of every
    import statement inside a function body."""
    found = set()

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.update((module, function, target) for target in imported_modules(child))
            visit(module, child, function)

    for name, tree in modules.items():
        visit(name, tree, None)
    return found


def a_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of `edges` as a path of module names, or None."""
    done, path = set(), []

    def search(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(edges.get(name, ())):
            cycle = search(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(edges):
        cycle = search(name)
        if cycle:
            return cycle
    return None


def test_the_package_modules_import_each_other_without_a_cycle():
    edges = package_edges(parsed_modules())
    assert edges["synth"] >= {"audio_io", "dataset"}  # the walk sees the imports
    assert a_cycle(edges) is None, " -> ".join(a_cycle(edges))


def test_only_the_projectors_import_inside_a_function():
    assert function_imports(parsed_modules()) == FUNCTION_IMPORTS

