"""The package's modules form layers: no chain of relative imports, counting
those deferred into function bodies, leads from a module back to itself, and
only `pipeline` imports the extraction stages to chain them.  Outside itself
the package imports only the standard library and numpy."""

import ast
import pathlib
import sys

import spsgmm

PKG = pathlib.Path(spsgmm.__file__).parent

STAGES = {
    "frame_interval",
    "magnitude_spectra",
    "make_frame_config",
    "build_peak_matrix",
    "compute_attributes",
}


def relative_imports(path):
    """Every relative `from ... import` node anywhere in a module's source."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node


def absolute_imports(path):
    """The top-level name of every absolute import anywhere in a module's source."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def import_graph():
    """{module: set of package modules it imports}, from every relative
    import anywhere in each module's source."""
    modules = {path.stem: path for path in PKG.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        deps = set()
        for node in relative_imports(path):
            if node.module:
                deps.add(node.module.split(".")[0])
            else:  # from . import a, b
                deps.update(a.name for a in node.names if a.name in modules)
        graph[name] = deps & modules.keys()
    return graph


def find_cycle(graph):
    """One import cycle as a list of modules (first == last), or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for dep in sorted(graph[node]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_graph_sees_the_package():
    graph = import_graph()
    assert {"classifier", "evaluate", "pipeline", "cli"} <= graph.keys()
    assert "classifier" in graph["evaluate"]
    assert {"audio_io", "pipeline"} <= graph["cli"]  # from . import a, b


def test_find_cycle_finds_a_planted_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_no_import_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_only_pipeline_chains_the_stages():
    """The stage order lives in `pipeline`; other modules reach extraction
    through it (`__init__` only re-exports the stage functions)."""
    importers = {
        path.stem
        for path in PKG.glob("*.py")
        for node in relative_imports(path)
        if STAGES & {a.name for a in node.names}
    }
    assert importers <= {"pipeline", "__init__"}, sorted(importers)
    assert "pipeline" in importers


def test_only_stdlib_and_numpy_imported():
    """So the package cannot come to need experiments/, tests/ or an
    undeclared dependency."""
    names = {(path.name, name) for path in PKG.glob("*.py") for name in absolute_imports(path)}
    assert ("classifier.py", "numpy") in names and ("cli.py", "argparse") in names
    outside = sorted(
        (module, name)
        for module, name in names
        if name != "numpy" and name not in sys.stdlib_module_names
    )
    assert not outside, outside
