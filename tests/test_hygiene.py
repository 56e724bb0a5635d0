"""Source hygiene: every imported name is used where it is imported, every
public function of the package is part of its API, no package module imports
another's underscore names, only graphs.py reads the packed layout, only its
decoder walks the set bits, only the md5 kernel builder generates code, ints
are tested one way (type(v) is int, never isinstance), every NamedTuple that
checks its fields in __new__ routes _make through it, and importing the
package loads no process-pool module and no dataclasses."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ imports names only to re-export them.
SCANNED = [
    p
    for d in ("src/daghash", "tests", "scripts")
    for p in sorted((ROOT / d).glob("*.py"))
    if p != ROOT / "src/daghash/__init__.py"
]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    src = "import os\nimport a.b\nfrom x import y as z, w\nw()\n"
    assert unused_imports(src) == ["os", "a", "z"]


def test_no_unused_imports():
    assert SCANNED
    found = [
        f"{p.relative_to(ROOT)}: {name}"
        for p in SCANNED
        for name in unused_imports(p.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


# The public API is what the package exports plus what the package, the
# scripts and the benchmark read; helpers only tests call live in conftest.
API_READERS = [
    p for d in ("src/daghash", "scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))
]


def names_read(source: str) -> set[str]:
    """Names Name and Attribute nodes read, except a function's own name
    inside its module-level def."""
    found = set()
    for stmt in ast.parse(source).body:
        own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
        found.discard(own)
    return found


def unlisted_functions(modules: dict[str, str], exported: set[str], readers: list[str]) -> list[str]:
    """Public module-level functions that exported lacks and no reader reads."""
    read = set().union(*map(names_read, readers))
    return [
        f"{name}.{stmt.name}"
        for name, source in modules.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in exported | read
    ]


def test_unlisted_functions_detected():
    module = "def f():\n    f()\ndef g(): pass\ndef h(): pass\ndef _p(): pass\n"
    user = "import m\nm.g()\n"
    assert unlisted_functions({"m": module}, {"h"}, [module, user]) == ["m.f"]


def test_public_functions_are_api():
    init = ast.parse((ROOT / "src/daghash/__init__.py").read_text(encoding="utf-8"))
    exported = {
        a.asname or a.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    package = sorted((ROOT / "src/daghash").glob("*.py"))
    modules = {p.stem: p.read_text(encoding="utf-8") for p in package}
    readers = [p.read_text(encoding="utf-8") for p in API_READERS]
    found = unlisted_functions(modules, exported, readers)
    assert not found, "public functions outside the API:\n" + "\n".join(found)


# Only graphs.py knows the row-major packed layout, canonical_relabeling
# included.  Every other module decodes through neighbor_lists_from_bits,
# neighbor_rows_from_bits or adjacency_lists.
PACKED_LAYOUT_READERS = {"graphs"}


def test_packed_layout_read_in_one_place():
    found = [
        p.name
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
        if p.stem not in PACKED_LAYOUT_READERS
        and "pair_index" in names_read(p.read_text(encoding="utf-8"))
    ]
    assert not found, "modules reading pair_index:\n" + "\n".join(found)


# Code generation stays in one audited place: the md5 kernel builder, whose
# source holds only checked ints and LE64 constants.
CODEGEN = {"exec", "eval", "compile"}
CODEGEN_HOMES = {("hashing", "_compile_kernel")}


def codegen_uses(source: str) -> list[tuple[str | None, str]]:
    """(enclosing module-level def or class, or None; name) for every Name
    or Attribute node that reads exec, eval or compile."""
    found = []
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None
            )
            if name in CODEGEN:
                found.append((owner, name))
    return found


def test_codegen_uses_detected():
    src = (
        "import re\nx = eval('1')\ndef f():\n    exec('y = 1')\n"
        "class C:\n    p = re.compile('a')\ndef g():\n    return compile\ndef h(): pass\n"
    )
    assert codegen_uses(src) == [(None, "eval"), ("f", "exec"), ("C", "compile"), ("g", "compile")]


def test_code_generated_in_one_place():
    uses = {
        p.stem: codegen_uses(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
    }
    found = [
        f"{stem}.{owner}: {name}"
        for stem, names in uses.items()
        for owner, name in names
        if (stem, owner) not in CODEGEN_HOMES
    ]
    assert not found, "code generation outside the kernel builder:\n" + "\n".join(found)
    assert ("_compile_kernel", "exec") in uses["hashing"]


# One walk over a packed matrix's set bits: the decoder's, above the table
# sizes.  Every other reader of the matrix takes the decoded lists.
BIN_HOMES = [("graphs", "neighbor_lists_from_bits")]


def bin_uses(source: str) -> list[str | None]:
    """The enclosing module-level def or class, or None, of every Name or
    Attribute node that reads bin."""
    return [
        stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for stmt in ast.parse(source).body
        for node in ast.walk(stmt)
        if getattr(node, "id", getattr(node, "attr", None)) == "bin"
    ]


def test_bin_uses_detected():
    src = (
        "import builtins\nx = bin(3)\ndef f(b):\n    return bin(b)[2:]\n"
        "class C:\n    w = builtins.bin\ndef g(binary): return binary\n"
    )
    assert bin_uses(src) == [None, "f", "C"]


def test_set_bits_walked_in_one_place():
    found = [
        (p.stem, owner)
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
        for owner in bin_uses(p.read_text(encoding="utf-8"))
    ]
    assert found == BIN_HOMES, f"bin read outside the decoder: {found}"


# One int rule: an int is exactly int, tested as type(v) is int.  An
# isinstance(v, int) admits bool and IntEnum unless a second test excludes
# them, and two such rules drift apart.
INT_TESTS = {"isinstance", "issubclass"}
INT_TYPES = {"int", "bool"}


def int_isinstance_calls(source: str) -> list[int]:
    """Line numbers of isinstance and issubclass calls whose class argument
    names int or bool, alone or among others."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and len(node.args) == 2
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in INT_TESTS
        and INT_TYPES & {getattr(n, "id", None) for n in ast.walk(node.args[1])}
    ]


def test_int_isinstance_calls_detected():
    src = (
        "import builtins\na = isinstance(x, int)\nb = isinstance(x, (str, bool))\n"
        "c = isinstance(x, list)\nd = builtins.isinstance(x, int)\n"
        "e = issubclass(t, int)\nf = type(x) is int\ng = isinstance(x, integer)\n"
    )
    assert int_isinstance_calls(src) == [2, 3, 5, 6]


def test_ints_tested_one_way():
    found = [
        f"{p.name}:{line}"
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
        for line in int_isinstance_calls(p.read_text(encoding="utf-8"))
    ]
    assert not found, "isinstance int tests, not type(v) is int:\n" + "\n".join(found)


def private_imports(source: str) -> list[str]:
    """Imports of underscore names from the package's own modules."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "daghash")
        for a in node.names
        if a.name.startswith("_")
    ]


def test_private_imports_detected():
    src = (
        "from __future__ import annotations\nfrom _md5 import md5 as _m\n"
        "from .graphs import _extensions, pair_count\nfrom . import _x\n"
        "from daghash.hashing import _md5\n"
    )
    assert private_imports(src) == [
        "from .graphs import _extensions",
        "from . import _x",
        "from daghash.hashing import _md5",
    ]


def test_no_private_names_across_modules():
    # A module's underscore names are its own; a name another module needs
    # is public, or lives beside its one caller.
    found = [
        f"{p.name}: {line}"
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
        for line in private_imports(p.read_text(encoding="utf-8"))
    ]
    assert not found, "private names imported across modules:\n" + "\n".join(found)


def checked_named_tuples(source: str) -> dict[str, bool]:
    """For each class built on NamedTuple, namedtuple or graphs.checked_tuple
    that defines __new__, whether it builds on checked_tuple, which routes
    _make, or assigns or defines _make itself."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {
            n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            for b in node.bases for n in ast.walk(b)
        }
        if {"NamedTuple", "namedtuple", "checked_tuple"} & bases:
            own = {s.name for s in node.body if isinstance(s, ast.FunctionDef)} | {
                t.id for s in node.body if isinstance(s, ast.Assign)
                for t in s.targets if isinstance(t, ast.Name)
            }
            if "__new__" in own:
                found[node.name] = "checked_tuple" in bases or "_make" in own
    return found


def test_checked_named_tuples_detected():
    src = (
        "import typing\nfrom collections import namedtuple\n"
        "class A(typing.NamedTuple('A', [('x', int)])):\n    def __new__(cls, x): ...\n"
        "class B(namedtuple('B', 'x')):\n    _make = classmethod(lambda c, f: c(*f))\n"
        "    def __new__(cls, x): ...\n"
        "class C(typing.NamedTuple):\n    x: int\n"
        "class D:\n    def __new__(cls): ...\n    def _make(self): ...\n"
        "class E(graphs.checked_tuple('E', [('x', int)])):\n    def __new__(cls, x): ...\n"
        "class F(typing.NamedTuple('F', [('x', int)])):\n    def __reduce__(self): ...\n"
        "    def __new__(cls, x): ...\n"
    )
    assert checked_named_tuples(src) == {"A": False, "B": True, "E": True, "F": False}


def test_checked_named_tuples_route_make():
    # namedtuple's _make, and so _replace, builds with tuple.__new__ and
    # would skip the check in __new__; graphs.checked_tuple's does not
    found = {
        name: routed
        for p in sorted((ROOT / "src/daghash").glob("*.py"))
        for name, routed in checked_named_tuples(p.read_text(encoding="utf-8")).items()
    }
    assert {"ComputationalGraph", "Permutation", "EnumerationConfig"} <= found.keys()
    unrouted = sorted(name for name, routed in found.items() if not routed)
    assert not unrouted, "NamedTuples whose _make skips __new__:\n" + "\n".join(unrouted)


def loaded_on_import(modules: tuple[str, ...]) -> str:
    """Which of modules `import daghash, daghash.cli` loads under python -S,
    printed as a list."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import daghash, daghash.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return run.stdout.strip()


# Only a run that builds a pool imports the pool modules; importing the
# package and its command line, as every sequential run does, loads none.
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def test_import_loads_no_pool_modules():
    loaded = loaded_on_import(POOL_MODULES)
    assert loaded == "[]", loaded


# The value types are NamedTuples, so importing the package loads neither
# dataclasses nor the inspect module it pulls in.
CLASS_BUILDER_MODULES = ("dataclasses", "inspect")


def test_import_loads_no_dataclasses():
    loaded = loaded_on_import(CLASS_BUILDER_MODULES)
    assert loaded == "[]", loaded
