"""Source hygiene: every imported name is used where it is imported."""

import ast
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
