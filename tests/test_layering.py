"""Import layering of the package, read from its source with `ast`.

Every package module imports what it needs at module level: there is no
import cycle to break inside a function.  The backbone sees an assembled
token sequence and an optional hidden-space condition term; it knows
nothing of how the condition video is encoded or injected.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hcustom"


def _package_modules(node) -> set[str]:
    """Package modules (relative names) that an import node brings in."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if not node.level:
            if module.split(".")[0] != "hcustom":
                return set()
            module = module[len("hcustom"):].lstrip(".")
        return {module} if module else {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {alias.name[len("hcustom"):].lstrip(".") or "hcustom"
                for alias in node.names if alias.name.split(".")[0] == "hcustom"}
    return set()


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_package_sources_found():
    assert {"backbone.py", "model.py", "video_inject.py"} <= {p.name for p in SRC.glob("*.py")}


def test_no_package_import_inside_a_function():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn) if _package_modules(node)}
    assert not found, sorted(found)


def test_backbone_does_not_import_video_inject():
    imported = set()
    for node in ast.walk(_parse(SRC / "backbone.py")):
        imported |= {m.split(".")[0] for m in _package_modules(node)}
    assert "autograd" in imported  # the scan sees the backbone's own imports
    assert "video_inject" not in imported
