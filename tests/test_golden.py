import ast
import importlib
import os
import re
import subprocess
import sys
import typing
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


#: Runs in perfbench's worker: every workload's first ``STEPWISE_CHECKS``
#: trials stepped through the layer functions against ``estimate_doa``, its
#: noiseless controls, and its CLI probe, which saves the config into the
#: directory given as the first argument and reads it back through
#: ``h2ad-doa estimate``.  Prints the checks that failed.
_STEPWISE_CHILD = """
import sys

import worker
from tracer import Tracer
from worker import (STEPWISE_CHECKS, WORKLOADS, attempt, cli_probe, control_checks,
                    run_api, run_traced, same_result)

worker.OUT_DIR = sys.argv[1]
failed = []
for name, wl in WORKLOADS.items():
    for j in range(STEPWISE_CHECKS):
        sc, method, _ = wl.trial(1, j)
        if not same_result(attempt(run_traced, Tracer(), sc, method, []),
                           attempt(run_api, sc, method)):
            failed.append(f"{name} trial {j}")
    if not control_checks(wl, 1)["controls_ok"]:
        failed.append(f"{name} controls")
    if not cli_probe(wl, 1, 1)[1]:
        failed.append(f"{name} cli probe")
print(failed)
"""


def test_benchmark_stepwise_chain_matches_api(tmp_path):
    # The benchmark steps each trial through the public layer functions by
    # hand and needs the same bits as estimate_doa, and its CLI probe needs
    # save_config's file to load; its smoke run is not part of this suite,
    # so a layer whose result changed type or meaning, or a config format
    # change, would otherwise break it unseen.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STEPWISE_CHILD, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


_IMPORT_CHILD = """
import math, sys
import h2ad_doa, h2ad_doa.cli
unwanted = {'logging', 'concurrent.futures'}
print(sorted(unwanted & set(sys.modules)))
sc = h2ad_doa.SimScenario(h2ad_doa.ArrayConfig(M=(11, 13, 17), K=(64, 64, 64)),
                          math.radians(41.0), 0.0, 200)
h2ad_doa.estimate_doa(sc)
print(sorted(unwanted & set(sys.modules)))
"""


def test_import_loads_no_logging_or_executor():
    # Nothing in the package logs or starts a thread, so neither importing
    # it and its CLI nor a K_q = 64 estimate may pay for these modules.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


#: The steps of the one select-weight-fuse back end, ``fuse_candidates``.
BACK_END_STEPS = {"select_true_tuple", "weights_crlb_ratio", "weights_exact", "fuse"}


def _back_end_steps_used(source, name, reexport=False):
    """``name:line: step`` for every reference to a back-end step in
    ``source``, imports included unless ``reexport``.  Parsed, not run."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Name):
            used = [node.id]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport:
            used = [a.name.rpartition(".")[2] for a in node.names]
        else:
            continue
        found += [f"{name}:{node.lineno}: {step}" for step in used if step in BACK_END_STEPS]
    return found


def test_weighting_is_written_once():
    # Outside fusion.py the package and the README's examples reach
    # selection, weighting and fusing only through fuse_candidates, so no
    # second copy of the back end can drift from it; __init__.py only
    # re-exports the steps.
    found = []
    for path in sorted((ROOT / "src" / "h2ad_doa").glob("*.py")):
        if path.name != "fusion.py":
            found += _back_end_steps_used(path.read_text(), path.name,
                                          reexport=path.name == "__init__.py")
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)):
        found += _back_end_steps_used(block, f"README.md python block {i}")
    assert found == []


#: Wordings of a range refusal, which only ``array_model.check_integer`` builds.
BOUND_WORDINGS = ("must be >=", "must be within")


def _bound_messages(path):
    """``name:line: text`` for every string the module at ``path`` builds,
    docstrings aside, that words a range refusal.  Parsed, not run; an
    f-string's fields read as ``{}``."""
    tree = ast.parse(path.read_text(), filename=path.name)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in docstrings:
                continue
            text = node.value
        else:
            continue
        if any(wording in text for wording in BOUND_WORDINGS):
            found.add(f"{path.name}:{node.lineno}: {text}")
    return sorted(found)


def test_integer_bounds_are_written_once():
    # Every integer field takes its range through array_model.check_integer,
    # so no module words a range refusal of its own that could drift from it.
    package = ROOT / "src" / "h2ad_doa"
    assert _bound_messages(package / "array_model.py")  # the detector sees the rule
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "array_model.py":
            found += _bound_messages(path)
    assert found == []


def test_annotations_resolve():
    # Tools that read annotations (``typing.get_type_hints``, which
    # ``bench.parse_csv`` relies on) fail on any name an annotation uses
    # that its module does not bind.
    unresolved = []
    for path in sorted((ROOT / "src" / "h2ad_doa").glob("*.py")):
        name = "h2ad_doa" if path.stem == "__init__" else f"h2ad_doa.{path.stem}"
        module = importlib.import_module(name)
        defined = [obj for obj in vars(module).values()
                   if callable(obj) and getattr(obj, "__module__", None) == name]
        for obj in [module, *defined]:
            try:
                typing.get_type_hints(obj)
            except Exception as err:  # reported all at once below
                unresolved.append(f"{name}.{getattr(obj, '__qualname__', '')}: {err!r}")
    assert unresolved == []


#: Spacing names another module may read: the shared constant and a
#: group's virtual-array spacing, both defined in ``array_model``.
SPACING_READS = ("SPACING", "virtual_spacing")


def _spacing_names(path):
    """``name:line: identifier`` for every identifier in the module at
    ``path`` that names a spacing or a wavelength, other than a read of
    ``SPACING_READS``.  Parsed, not run; an import is a read."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            read = isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.alias):
            name, read = node.asname or node.name, True
        elif isinstance(node, ast.arg):
            name, read = node.arg, False
        elif isinstance(node, ast.keyword):
            name, read = node.arg or "", False
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name, read = node.name, False
        else:
            continue
        if ("spacing" in name.lower() or "lambda" in name.lower()) and not (
            read and name in SPACING_READS
        ):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_spacing_is_defined_once():
    # Elements sit half a wavelength apart: array_model.SPACING is the one
    # spacing, and every other module reads it or a group's virtual_spacing,
    # so no second spacing, field or config key can drift from it.
    package = ROOT / "src" / "h2ad_doa"
    assert _spacing_names(package / "array_model.py")  # the detector sees the rule
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "array_model.py":
            found += _spacing_names(path)
    assert found == []
