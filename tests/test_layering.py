"""One module DAG: every ``repro`` import in ``src/repro`` is module-level and points down.

Eight static checks over the AST of every module under ``src/repro``:

- no ``repro`` import sits in a function or class body (none dodges a cycle at runtime);
- an ``if TYPE_CHECKING:`` block imports from ``repro`` only what :data:`ALLOWED_TYPE_CHECKING`
  lists, each entry with its reason;
- the module import graph has no cycle.  Every ``repro`` import of a module is an edge, wherever
  it sits, except the allowed annotation imports; ``from pkg import mod`` points at ``mod`` and
  a package ``__init__`` is a module of its own;
- packages import downwards: each sits in one layer of :data:`LAYERS` and imports only from its
  own layer and the ones below; the packages that still import each other form exactly one
  cycle, :data:`PACKAGE_CYCLE`, which is one layer;
- every module-level import binds a name the module reads (string annotations and ``__all__``
  count), except what :data:`ALLOWED_UNUSED_IMPORTS` lists;
- no module-level import loads a module :data:`LOADED_AT_FIRST_USE` names (numpy, sqlite3);
- chunk CRCs are computed in one place: outside ``repro.hdfs.checksum``, which defines
  ``chunk_checksums``, only ``repro.persist.state`` calls it (where the journal writes a
  payload);
- one input form per function: no ``isinstance(..., Emitted)`` test (map output is columns
  past the user function that emitted it) and no parameter annotated with a union of
  ``HailQuery`` and ``BoundQuery`` (a query is bound once, in its split phase).

What only running the imports shows — a package ``__init__`` re-entering a module that is still
loading — is ``tools/import_each.py``'s job, run in CI.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``(importing module, imported module) -> (names, reason)``: the only ``TYPE_CHECKING``
#: imports from ``repro`` allowed, and only for annotations.
_OPERATORS_REASON = (
    "repro.systems.base dispatches every query kind to the operators (LOWERINGS); "
    "the operators only annotate with the system types, and bench/ pins them under engine/"
)
ALLOWED_TYPE_CHECKING = {
    ("repro.engine.operators", "repro.systems.base"): (
        {"BaseSystem", "QueryResult"}, _OPERATORS_REASON
    ),
    ("repro.engine.operators.aggregate", "repro.systems.base"): ({"BaseSystem"}, _OPERATORS_REASON),
    ("repro.engine.operators.join", "repro.systems.base"): ({"BaseSystem"}, _OPERATORS_REASON),
    ("repro.engine.operators.topk", "repro.systems.base"): ({"BaseSystem"}, _OPERATORS_REASON),
}


def _modules() -> dict[str, Path]:
    """Every module under ``src/repro`` by dotted name (a package by its ``__init__``'s)."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


MODULES = _modules()


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and any(
        isinstance(sub, (ast.Name, ast.Attribute))
        and "TYPE_CHECKING" in (getattr(sub, "id", None), getattr(sub, "attr", None))
        for sub in ast.walk(node.test)
    )


def _imports(name: str) -> list[tuple[str, str, set, int]]:
    """``(where, target module, names, line)`` per ``repro`` import of module ``name``.

    ``where`` is ``"module"`` (top level, or under a top-level ``if``/``try``),
    ``"type_checking"`` or ``"nested"`` (in a function or class body).  The target of
    ``from pkg import mod`` is ``pkg.mod`` when that is a module, else ``pkg``.
    """
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = []

    def targets_of(node) -> dict[str, set]:
        if isinstance(node, ast.Import):
            return {alias.name: set() for alias in node.names}
        module = node.module or ""
        if node.level:
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(base + ([module] if module else []))
        targets: dict[str, set] = {}
        for alias in node.names:
            sub = f"{module}.{alias.name}"
            if sub in MODULES:
                targets[sub] = set()
            else:
                targets.setdefault(module, set()).add(alias.name)
        return targets

    def visit(statements, where: str) -> None:
        for node in statements:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target, names in targets_of(node).items():
                    if target.partition(".")[0] == "repro":
                        found.append((where, target, names, node.lineno))
            elif _is_type_checking(node) and where == "module":
                visit(node.body, "type_checking")
                visit(node.orelse, "module")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, "nested")
            elif isinstance(node, (ast.stmt, ast.excepthandler)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []), where)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, "module")
    return found


IMPORTS = {name: _imports(name) for name in MODULES}


def _allowed(name: str, target: str, names: set) -> bool:
    entry = ALLOWED_TYPE_CHECKING.get((name, target))
    return entry is not None and bool(names) and names <= entry[0]


def test_the_scan_sees_the_whole_tree():
    assert len(MODULES) > 90
    assert sum(len(found) for found in IMPORTS.values()) > 300
    assert "repro.engine.operators" in MODULES and "repro.hail" in MODULES


def test_no_repro_import_sits_in_a_function_or_class():
    nested = [
        f"{MODULES[name].relative_to(SRC)}:{line} imports {target}"
        for name, found in IMPORTS.items()
        for where, target, _names, line in found
        if where == "nested"
    ]
    assert not nested, "\n".join(nested)


def test_type_checking_imports_are_only_the_listed_annotations():
    unlisted = [
        f"{MODULES[name].relative_to(SRC)}:{line} imports {sorted(names) or target} from {target}"
        for name, found in IMPORTS.items()
        for where, target, names, line in found
        if where == "type_checking" and not _allowed(name, target, names)
    ]
    assert not unlisted, "\n".join(unlisted)
    used = {
        (name, target)
        for name, found in IMPORTS.items()
        for where, target, _names, _line in found
        if where == "type_checking"
    }
    assert used == set(ALLOWED_TYPE_CHECKING), "drop the entries no module needs any more"


def _graph() -> dict[str, set]:
    return {
        name: {
            target
            for where, target, names, _line in found
            if target in MODULES
            and not (where == "type_checking" and _allowed(name, target, names))
        }
        for name, found in IMPORTS.items()
    }


def _find_cycle(graph: dict[str, set]) -> list[str]:
    """One cycle of ``graph`` as a closed path of nodes, or ``[]`` when it is a DAG."""
    state: dict[str, int] = {}  # 1: on the current path, 2: finished
    path: list[str] = []

    def visit(node: str) -> list[str]:
        state[node] = 1
        path.append(node)
        for successor in sorted(graph.get(node, ())):
            if state.get(successor) == 1:
                return path[path.index(successor):] + [successor]
            if successor not in state:
                cycle = visit(successor)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_the_cycle_finder_finds_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_the_module_import_graph_is_acyclic():
    cycle = _find_cycle(_graph())
    assert not cycle, " -> ".join(cycle)


#: The packages that still import each other: the one package cycle left, one layer of its own.
PACKAGE_CYCLE = {"engine", "hail", "mapreduce", "persist", "systems"}

#: The packages of ``src/repro``, bottom layer first.  A module imports from its own layer and
#: from the layers below, never from one above.  ``repro`` is the root package with its own
#: top-level modules (``repro._version``).
LAYERS = [
    {"cluster", "query"},
    {"layouts"},
    {"datagen", "hdfs"},
    PACKAGE_CYCLE,
    {"baselines"},
    {"api"},
    {"workloads"},
    {"experiments"},
    {"repro"},
]


def _package_of(module: str, packages: set) -> str:
    """The package of ``src/repro`` that ``module`` sits in (``repro`` for the root's own)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in packages else "repro"


def _upward_edges(graph: dict[str, set], layers: list[set]) -> list[str]:
    """``"module -> target"`` per edge of ``graph`` into a higher layer of ``layers``."""
    rank = {package: level for level, layer in enumerate(layers) for package in layer}
    return [
        f"{name} -> {target}"
        for name, targets in sorted(graph.items())
        for target in sorted(targets)
        if rank[_package_of(target, set(rank))] > rank[_package_of(name, set(rank))]
    ]


def _package_graph(graph: dict[str, set], packages: set) -> dict[str, set]:
    """Which package imports which, edges inside one package dropped."""
    edges: dict[str, set] = {package: set() for package in packages}
    for name, targets in graph.items():
        source = _package_of(name, packages)
        edges[source] |= {_package_of(target, packages) for target in targets} - {source}
    return edges


def _package_cycles(edges: dict[str, set]) -> list[set]:
    """The sets of packages that reach each other (the cycles), largest first."""

    def reach(start: str) -> set:
        seen, todo = set(), [start]
        while todo:
            for successor in edges[todo.pop()] - seen:
                seen.add(successor)
                todo.append(successor)
        return seen

    reached = {package: reach(package) for package in edges}
    cycles = {
        frozenset(other for other in reached[package] if package in reached[other])
        for package in edges
        if package in reached[package]
    }
    return sorted((set(cycle) for cycle in cycles), key=len, reverse=True)


def test_the_layer_rule_catches_an_upward_edge():
    layers = [{"low"}, {"mid", "peer"}, {"repro"}]
    graph = {
        "repro.low.a": {"repro.low.b"},
        "repro.low.b": {"repro.mid.c"},
        "repro.mid.c": {"repro.low.a", "repro.peer"},
        "repro.peer": {"repro.mid.c", "repro"},
        "repro": {"repro.mid.c"},
        "repro._version": set(),
    }
    assert _upward_edges(graph, layers) == ["repro.low.b -> repro.mid.c", "repro.peer -> repro"]
    edges = _package_graph(graph, {"low", "mid", "peer", "repro"})
    assert edges == {"low": {"mid"}, "mid": {"low", "peer"}, "peer": {"mid", "repro"},
                     "repro": {"mid"}}
    assert _package_cycles(edges) == [{"low", "mid", "peer", "repro"}]
    assert _package_cycles({"low": {"mid"}, "mid": set()}) == []


def test_every_package_has_a_layer():
    packages = {path.parent.name for path in (SRC / "repro").glob("*/__init__.py")} | {"repro"}
    declared = [package for layer in LAYERS for package in layer]
    assert sorted(declared) == sorted(packages)


def test_no_import_points_into_a_higher_layer():
    upward = _upward_edges(_graph(), LAYERS)
    assert not upward, "\n".join(upward)


def test_the_one_package_cycle_is_its_own_layer():
    packages = set().union(*LAYERS)
    assert _package_cycles(_package_graph(_graph(), packages)) == [PACKAGE_CYCLE]


#: ``(module, name) -> reason``: the only module-level imports in ``src/repro`` whose name the
#: module itself never reads.
ALLOWED_UNUSED_IMPORTS = {
    ("repro.api.session", "execute_operator"): (
        "bench/test_trace.py pins that tracing repro.engine.operators.execute rebinds it here"
    ),
}


def _module_level_imports(statements) -> Iterator[ast.Import | ast.ImportFrom]:
    """Every module-level import statement, top-level ``if``/``try`` included."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for handler in getattr(node, "handlers", []):
                yield from _module_level_imports(handler.body)
            for field in ("body", "orelse", "finalbody"):
                yield from _module_level_imports(getattr(node, field, []))


def _module_imports(statements) -> dict[str, int]:
    """``{bound name: line}`` of every module-level import, top-level ``if``/``try`` included."""
    bound: dict[str, int] = {}
    for node in _module_level_imports(statements):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module's code reads, string annotations and ``__all__`` included."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(element.value for element in node.value.elts)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.update(
                    name.id
                    for name in ast.walk(ast.parse(sub.value, mode="eval"))
                    if isinstance(name, ast.Name)
                )
    return read


def _unused_imports() -> dict[tuple[str, str], int]:
    unused = {}
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        for bound, line in _module_imports(tree.body).items():
            if bound not in read:
                unused[(name, bound)] = line
    return unused


def test_the_unused_import_rule_sees_string_annotations_and_all():
    tree = ast.parse(
        "from typing import TYPE_CHECKING, Optional\n"
        "import os, sys\n"
        "if TYPE_CHECKING:\n"
        "    from x import Late\n"
        "__all__ = ['sys']\n"
        "def f(a: 'Optional[Late]') -> None:\n"
        "    pass\n"
    )
    assert set(_module_imports(tree.body)) - _read_names(tree) == {"os"}


def test_every_module_level_import_is_read():
    unused = _unused_imports()
    unlisted = [
        f"{MODULES[name].relative_to(SRC)}:{line} imports {bound}, which it never reads"
        for (name, bound), line in sorted(unused.items())
        if (name, bound) not in ALLOWED_UNUSED_IMPORTS
    ]
    assert not unlisted, "\n".join(unlisted)
    assert set(unused) == set(ALLOWED_UNUSED_IMPORTS), "drop the entries no module needs any more"


#: Modules a process loads only when it uses them: numpy at the first numpy kernel dispatch
#: (``repro.engine.kernels._numpy``), sqlite3 at the first journal it opens
#: (``SqliteBackend._open``).  A module-level import of either would load it with
#: ``import repro``; the CI legs without numpy see that only here
#: (``tests/test_import_footprint.py`` checks the loaded modules where numpy is installed).
LOADED_AT_FIRST_USE = {"numpy", "sqlite3"}


def _first_use_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """``(module, line)`` per module-level import of a :data:`LOADED_AT_FIRST_USE` module."""
    found = []
    for node in _module_level_imports(tree.body):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""] if node.level == 0 else []
        found += [
            (module, node.lineno)
            for module in modules
            if module.partition(".")[0] in LOADED_AT_FIRST_USE
        ]
    return found


def test_the_first_use_rule_sees_every_import_form():
    tree = ast.parse(
        "try:\n"
        "    import numpy as _np\n"
        "except ImportError:\n"
        "    _np = None\n"
        "from sqlite3 import connect\n"
        "import numpy.typing, json\n"
        "from . import sqlite3\n"
        "def f():\n"
        "    import sqlite3\n"
    )
    assert _first_use_imports(tree) == [("numpy", 2), ("sqlite3", 5), ("numpy.typing", 6)]


def test_numpy_and_sqlite3_are_not_imported_at_module_level():
    stray = [
        f"{path.relative_to(SRC)}:{line} imports {module} at module level"
        for path in MODULES.values()
        for module, line in _first_use_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not stray, "\n".join(stray)


#: The modules that call ``chunk_checksums``: where it is defined (``verify_chunk_checksums``
#: recomputes to compare) and the journal's capture, the one place CRCs come into being.
CHUNK_CHECKSUM_CALLERS = {"repro.hdfs.checksum", "repro.persist.state"}


def _calls_of(tree: ast.Module, function: str) -> list[int]:
    """Lines of every call of ``function``, by bare name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and function in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_the_journal_capture_computes_chunk_checksums():
    callers = {
        name: lines
        for name, path in MODULES.items()
        if (lines := _calls_of(ast.parse(path.read_text(encoding="utf-8")), "chunk_checksums"))
    }
    stray = [
        f"{MODULES[name].relative_to(SRC)}:{line} calls chunk_checksums"
        for name, lines in sorted(callers.items())
        if name not in CHUNK_CHECKSUM_CALLERS
        for line in lines
    ]
    assert not stray, "\n".join(stray)
    assert set(callers) == CHUNK_CHECKSUM_CALLERS


#: Past the map function a map output is columns (``Emitted``), and past the split phase a
#: query is a ``BoundQuery``: no program function takes the other form beside it.
_QUERY_FORMS = {"HailQuery", "BoundQuery"}


def _dotted_name(node: ast.AST) -> str | None:
    """``Name`` -> its id, ``a.b.Name`` -> ``Name``; anything else -> ``None``."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _union_members(node: ast.AST) -> set[str] | None:
    """The names a ``Union[...]``, ``Optional[...]`` or ``X | Y`` annotation node holds, nested
    unions flattened; ``None`` when ``node`` is no union."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        members = [node.left, node.right]
    elif isinstance(node, ast.Subscript) and _dotted_name(node.value) in ("Union", "Optional"):
        members = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    else:
        return None
    names = set()
    for member in members:
        nested = _union_members(member)
        names |= nested if nested is not None else {_dotted_name(member)}
    return names


def _second_forms(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, what)`` per ``isinstance(..., Emitted)`` test and per parameter annotated with a
    union of ``HailQuery`` and ``BoundQuery`` (string annotations parsed)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted_name(node.func) == "isinstance":
            kinds = node.args[1:]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(_dotted_name(kind) == "Emitted" for kind in kinds):
                found.append((node.lineno, "isinstance(..., Emitted)"))
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotation = node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                annotation = ast.parse(annotation.value, mode="eval").body
            for sub in ast.walk(annotation):
                members = _union_members(sub)
                if members is not None and _QUERY_FORMS <= members:
                    found.append((node.lineno, f"parameter {node.arg} takes both query forms"))
                    break
    return sorted(found)


def test_the_second_form_rule_sees_every_spelling():
    tree = ast.parse(
        "def f(a: Union[HailQuery, BoundQuery, None], b: 'HailQuery | planner.BoundQuery'):\n"
        "    return isinstance(a, Emitted) or isinstance(b, (list, job.Emitted))\n"
        "def g(c: Optional[Union[BoundQuery, HailQuery]], *d: Optional[BoundQuery | HailQuery]):\n"
        "    pass\n"
        "def h(e: Optional[BoundQuery], f: HailQuery, g: tuple[HailQuery, BoundQuery]):\n"
        "    return isinstance(e, BoundQuery) or isinstance(f, Emitted.__class__)\n"
    )
    assert _second_forms(tree) == [
        (1, "parameter a takes both query forms"),
        (1, "parameter b takes both query forms"),
        (2, "isinstance(..., Emitted)"),
        (2, "isinstance(..., Emitted)"),
        (3, "parameter c takes both query forms"),
        (3, "parameter d takes both query forms"),
    ]


def test_no_program_function_takes_a_second_input_form():
    stray = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for path in MODULES.values()
        for line, what in _second_forms(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not stray, "\n".join(stray)


def test_the_bottom_layer_imports_no_other_package():
    edges = _package_graph(_graph(), set().union(*LAYERS))
    assert {package: edges[package] for package in LAYERS[0]} == {"cluster": set(), "query": set()}
