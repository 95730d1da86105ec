"""Source-tree guards: every top-level name in the package, and every method
and property of its classes, has a reader, and ``serial`` is the package's one
filesystem boundary.

A name that only tests read is library code no program runs, so it must
either gain a reader in ``src/mmtl`` or ``perfbench/`` or leave the tree.
A path opened, created, listed or removed anywhere but ``serial`` would fail
in its own way instead of as ``serial``'s InputError that names the path.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmtl"

# names kept without a program reader, each with its reason
ALLOWED_UNREAD = {
    "heads.parse_metrics_record": "reads format_metrics_record's lines back; the "
                                  "per-step training records on the ROADMAP will use it",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each top-level def, class
    and assignment, and of each method and property of a top-level class."""
    for node in tree.body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, name, first, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([method.lineno] + [d.lineno for d in method.decorator_list])
                    yield f"{node.name}.{method.name}", method.name, first, method.end_lineno


def _unread_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench_text = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unread = []
    for module, text in sources.items():
        lines = text.splitlines()
        elsewhere = "\n".join([bench_text] + [t for m, t in sources.items() if m != module])
        for qualname, name, first, last in _definitions(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            rest = "\n".join(lines[:first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not (word.search(rest) or word.search(elsewhere)):
                unread.append(f"{module}.{qualname}")
    return unread


def test_every_package_name_has_a_program_reader():
    unread = _unread_names()
    assert [n for n in unread if n not in ALLOWED_UNREAD] == [], "names no program reads"
    # an allowlisted name that gains a reader or leaves the tree leaves the list
    assert sorted(set(ALLOWED_UNREAD) - set(unread)) == []


FILESYSTEM_CALLS = {"open", "mkdir", "makedirs", "listdir", "scandir", "exists", "isfile",
                    "isdir", "unlink", "rmdir", "write_text", "write_bytes", "read_text",
                    "read_bytes"}


def _filesystem_calls(tree: ast.Module):
    """(line, name) of each call to a FILESYSTEM_CALLS name, as a function or a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FILESYSTEM_CALLS:
                yield node.lineno, name


def test_only_serial_touches_the_filesystem():
    calls = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "serial.py"
             for line, name in _filesystem_calls(ast.parse(path.read_text()))]
    assert calls == [], "filesystem calls outside serial.py"
