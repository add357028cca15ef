"""Import layering of the package, read from its source with `ast`.

Every package module imports the package modules it needs at module level:
there is no import cycle to break inside a function, and no import that
nothing uses.  The one deferred import is `scipy.ndimage`: it adds about
26 MB to the resident memory of every process that loads it, and only the
annotation procedures and the sprite detector of the metrics call it, so
training and sampling never load it.
The backbone sees an assembled token sequence and an optional hidden-space
condition term; it knows nothing of how the condition video is encoded or
injected.  Only `nn.fit` trains: no other module builds an optimizer or
runs a backward pass.  The autodiff core imports only numpy and the
standard library.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def _module_imports(tree) -> dict[str, int]:
    """Names bound by the module-level imports of a module, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def test_no_unused_module_level_import():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":      # re-exports the public names
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _module_imports(tree).items() if name not in used]
    assert not unused, unused


def test_only_nn_builds_an_optimizer_or_runs_backward():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("Adam", "backward"):
                found.add(f"{path.name} {name}")
    assert found == {"nn.py Adam", "nn.py backward"}, sorted(found)


def test_autograd_imports_only_numpy_and_the_standard_library():
    # the numpy-only autodiff core: no scipy, and no package module
    imported = set()
    for node in ast.walk(_parse(SRC / "autograd.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert "numpy" in imported
    assert not imported - {"numpy"} - sys.stdlib_module_names, sorted(imported)


def test_importing_the_package_leaves_scipy_ndimage_unloaded():
    code = ("import sys, hcustom.cli, hcustom.pipeline; "
            "print('scipy.ndimage' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
