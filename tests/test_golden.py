import ast
import importlib
import subprocess
import sys
from pathlib import Path

import h2ad_doa

ROOT = Path(__file__).resolve().parents[1]


def test_golden_outputs_unchanged():
    # Compare mode only: the check reads golden.json and the fixed model.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "golden.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _benchmark_imports():
    """(file, module, name) for every name perfbench/*.py imports from the
    package or its submodules.  The files are parsed, not run."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "h2ad_doa"):
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_benchmark_imports_resolve():
    # The benchmark runs the package from its own checkout, and its smoke
    # run is not part of this suite, so a name moved out of the package
    # would otherwise break it unseen.
    imports = _benchmark_imports()
    assert {"golden.py", "worker.py"} <= {f for f, _, _ in imports}
    missing = [
        f"{f}: {module}.{name}"
        for f, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_package_all_names_import():
    namespace = {}
    exec("from h2ad_doa import *", namespace)
    assert len(set(h2ad_doa.__all__)) == len(h2ad_doa.__all__)
    assert set(h2ad_doa.__all__) <= set(namespace)


def _runtime_imports():
    """(file, top-level module) for every absolute import in the package
    source.  The files are parsed, not run."""
    found = []
    for path in sorted((ROOT / "src" / "h2ad_doa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module.split(".")[0]))
    return found


def test_runtime_imports_only_numpy_and_stdlib():
    # The package's one runtime dependency is numpy (pyproject.toml); a
    # third-party import would break installs that carry only that.
    imports = _runtime_imports()
    allowed = set(sys.stdlib_module_names) | {"numpy", "h2ad_doa"}
    assert "numpy" in {m for _, m in imports}
    assert [f"{f}: {m}" for f, m in imports if m not in allowed] == []
