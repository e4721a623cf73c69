"""Static checks over the package source."""

import ast
import sys
from pathlib import Path

import domrecon


def test_no_assert_statements():
    # internal checks must survive python -O and reach the CLI exit codes,
    # so they raise instead of asserting
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_move_add_only_in_sequences():
    # the walk order (adds before removes, each ascending) lives in
    # sequences.add_then_remove; other modules build their adds through it
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert any(path.name == "sequences.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "sequences.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "add"
        and isinstance(node.value, ast.Name)
        and node.value.id == "Move"
    ]
    assert found == []


def test_moves_built_only_in_sequences():
    # Move.add, Move.remove and Move.flipped hand out shared instances; a
    # Move(...) call elsewhere would bypass them
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert any(path.name == "sequences.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "sequences.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Move"
    ]
    assert found == []


def test_no_combinations_in_src():
    # no module loops over itertools.combinations: dominating_subsets walks
    # only the vertex prefixes that can still be completed to a dominating
    # set, and exact_invariants works on whole subset families
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert any(path.name == "graphs.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "combinations"
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(alias.name == "combinations" for alias in node.names)
        )
    ]
    assert found == []


def test_stdlib_only_imports():
    # the runtime has no third-party dependencies: every import is the
    # package itself (relative or absolute) or a standard-library module
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"domrecon"}
            ]
    assert found == []


def test_private_bfs_helpers_have_one_caller_each():
    # threshold_scan lists R_kmax through build_reconfig_graph and measures
    # every R_k through max_component_diameter, the public functions the
    # benchmark tracer wraps, so the scan's time and BFS sources are
    # counted where they run; listed and prefix R_k share one constructor
    path = Path(domrecon.__file__).parent / "oracle.py"
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and node.id in (
            "_eccentricities",
            "_label_components",
        ):
            found.add((node.id, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    assert found == {
        ("_eccentricities", "diameter"),
        ("_eccentricities", "max_component_diameter"),
        ("_label_components", "_reconfig_graph"),
    }


def test_comment_rule_only_in_content_lines():
    # every file format skips the same comment lines ('c' or 'c ...'),
    # decided once by graphs.content_lines
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = set()

    def is_comment_test(node):
        # x == "c", x != "c" or x.startswith("c ")
        if isinstance(node, ast.Compare):
            return any(
                isinstance(side, ast.Constant) and side.value == "c"
                for side in node.comparators
            )
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and any(isinstance(arg, ast.Constant) and arg.value == "c " for arg in node.args)
        )

    def visit(node, path, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if is_comment_test(node):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sources:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    assert found == {("graphs.py", "content_lines")}


def owners(path, is_target):
    """(file, enclosing function) of every node of path's source that
    is_target accepts; "<module>" outside any function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if is_target(node):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_one_greedy_shrink_and_one_move_dispatch():
    # every transform shrinks through sequences.shrink_in_place (general
    # through graphs.reduce_to_minimal) and applies moves to a carried
    # CoverCounts through sequences.play
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9

    def shrink_call(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "shrink"
        )

    def add_or_remove(node):
        # state.add if mv.kind == ADD else state.remove
        return (
            isinstance(node, ast.IfExp)
            and isinstance(node.body, ast.Attribute)
            and isinstance(node.orelse, ast.Attribute)
            and {node.body.attr, node.orelse.attr} == {"add", "remove"}
        )

    assert set().union(*(owners(path, shrink_call) for path in sources)) == {
        ("graphs.py", "reduce_to_minimal"),
        ("sequences.py", "shrink_in_place"),
    }
    assert set().union(*(owners(path, add_or_remove) for path in sources)) == {
        ("sequences.py", "play"),
    }


def test_treewidth_does_not_import_minor_sparse():
    # the sweep reduces its endpoints on its own counts, not through
    # minor_sparse.pad_to_size
    path = Path(domrecon.__file__).parent / "treewidth.py"

    def imports_minor_sparse(node):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            return False
        return any(name.rpartition(".")[2] == "minor_sparse" for name in names)

    assert owners(path, imports_minor_sparse) == set()


def test_graph_holds_no_masks_and_one_closed_table():
    # Graph's memory stays linear in n + m: no n-bit mask per vertex, and the
    # closed neighbourhoods (v, *N(v)) are built once, by Graph.__init__, for
    # every domination count to walk instead of a fresh tuple per call
    assert not [name for name in domrecon.Graph.__slots__ if "mask" in name]
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.elts[1], ast.Starred)
        ):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sources:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert found == {("graphs.py", ".Graph.__init__")}


def test_sweep_holds_no_masks():
    # the treewidth sweep's memory stays linear in n: no n-bit copy of the
    # members on CoverCounts, no n-bit left set per bag on NormalizedTD, and
    # treewidth.py turns no vertex set into a mask
    from domrecon.graphs import CoverCounts
    from domrecon.treewidth import NormalizedTD

    assert not [name for name in CoverCounts.__slots__ if "mask" in name]
    assert not [name for name in vars(NormalizedTD) if "mask" in name]
    path = Path(domrecon.__file__).parent / "treewidth.py"

    def names_mask_of(node):
        return (
            (isinstance(node, ast.alias) and node.name == "mask_of")
            or (isinstance(node, ast.Name) and node.id == "mask_of")
            or (isinstance(node, ast.Attribute) and node.attr == "mask_of")
        )

    assert owners(path, names_mask_of) == set()


def qualified_owners(path, is_target):
    """(file, dotted path of enclosing classes and functions) of every node
    of path's source that is_target accepts; "" outside any of them."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if is_target(node):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_constructed_sequences_are_tracked():
    # every sequence a construction returns carries the end it followed
    # (ReconfigSequence.tracked), so `+` and reverse_sequence never replay;
    # only parse_sequence and the class itself build one whose end is
    # replayed, and that replay and CoverCounts are the package's only
    # checks of a bad move
    sources = sorted(Path(domrecon.__file__).parent.glob("*.py"))
    assert len(sources) >= 9

    def builds_sequence(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "ReconfigSequence"
        )

    def raises_bad_move(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and ("already present" in part.value or "not present" in part.value)
            for part in ast.walk(node)
        )

    built = set().union(*(qualified_owners(path, builds_sequence) for path in sources))
    assert {
        (name, owner)
        for name, owner in built
        if not owner.startswith(".ReconfigSequence.")
    } == {("sequences.py", ".parse_sequence")}
    assert set().union(*(qualified_owners(path, raises_bad_move) for path in sources)) == {
        ("graphs.py", ".CoverCounts.add"),
        ("graphs.py", ".CoverCounts.remove"),
        ("sequences.py", ".ReconfigSequence.end"),
    }
