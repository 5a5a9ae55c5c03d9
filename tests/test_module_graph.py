"""The package's module graph: every fkdvlab import sits at module level, so
the graph is what the import lines at the top of each module say it is."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import fkdvlab

SRC = Path(fkdvlab.__file__).parent


def _is_fkdvlab_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return node.level > 0 or module == "fkdvlab" or module.startswith("fkdvlab.")
    if isinstance(node, ast.Import):
        return any(a.name == "fkdvlab" or a.name.startswith("fkdvlab.") for a in node.names)
    return False


def function_local_imports(path: Path) -> set:
    """``file:line`` of every fkdvlab import inside a function of ``path``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return {f"{path.name}:{node.lineno}"
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, functions)
            for node in ast.walk(fn) if _is_fkdvlab_import(node)}


def test_no_function_imports_an_fkdvlab_module():
    hits = set().union(*(function_local_imports(p) for p in sorted(SRC.glob("*.py"))))
    assert sorted(hits) == []


def test_detector_sees_relative_absolute_and_nested_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import spectral\n"
        "import numpy\n"
        "def f():\n"
        "    from .solver import solve\n"
        "    import scipy.integrate\n"
        "    def g():\n"
        "        import fkdvlab.stein\n"
        "class C:\n"
        "    def m(self):\n"
        "        from fkdvlab import errors\n")
    assert function_local_imports(sample) == {"sample.py:4", "sample.py:7", "sample.py:10"}


def layout_order(readme: Path) -> list:
    """The modules of the README's Layout table, top row first."""
    return re.findall(r"^\| `fkdvlab\.(\w+)` \|", readme.read_text(), flags=re.M)


def fkdvlab_imports(path: Path) -> set:
    """The package modules ``path`` imports; "" stands for the package root."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not _is_fkdvlab_import(node):
            continue
        if isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2].partition(".")[0] for a in node.names}
            continue
        module = node.module or ""
        if not node.level:
            module = module.partition(".")[2]
        if module:
            out.add(module.partition(".")[0])
        else:                          # from . import name: a module or a root name
            out |= {a.name if (path.parent / f"{a.name}.py").exists() else ""
                    for a in node.names}
    return out


def layer_violations(src: Path, order: list) -> list:
    """``module -> imported`` for every import of a package module that does
    not sit above the importer in ``order``; errors and the root are free."""
    rank = {m: i for i, m in enumerate(order)}
    return [f"{m} -> {dep}" for m in order
            for dep in sorted(fkdvlab_imports(src / f"{m}.py") - {"", "errors"})
            if rank.get(dep, len(order)) >= rank[m]]


def test_each_module_imports_only_modules_above_it_in_the_layout():
    order = layout_order(Path(__file__).resolve().parents[1] / "README.md")
    assert sorted(order) == sorted(p.stem for p in SRC.glob("*.py")
                                   if p.stem not in ("__init__", "errors"))
    assert layer_violations(SRC, order) == []


def test_stein_imports_no_solver():
    # stein draws its probe fields with spectral.random_band
    assert "solver" not in fkdvlab_imports(SRC / "stein.py")


def test_layer_detector_sees_downward_imports(tmp_path):
    (tmp_path / "README.md").write_text(
        "| module | contents |\n|---|---|\n"
        "| `fkdvlab.low` | base |\n| `fkdvlab.mid` | |\n| `fkdvlab.top` | |\n")
    (tmp_path / "errors.py").write_text("")
    (tmp_path / "low.py").write_text("from . import __version__\nfrom .errors import E\n"
                                     "from .top import f\n")
    (tmp_path / "mid.py").write_text("from . import low, __version__\nimport fkdvlab.mid\n")
    (tmp_path / "top.py").write_text("from fkdvlab.low import g\nfrom fkdvlab import mid\n")
    order = layout_order(tmp_path / "README.md")
    assert order == ["low", "mid", "top"]
    assert fkdvlab_imports(tmp_path / "low.py") == {"", "errors", "top"}
    assert fkdvlab_imports(tmp_path / "top.py") == {"low", "mid"}
    assert layer_violations(tmp_path, order) == ["low -> top", "mid -> mid"]


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def dataclass_fields(path: Path) -> set:
    """``Class.field`` of every dataclass field declared in ``path`` (an
    ``InitVar`` or ``ClassVar`` annotation declares no field)."""
    out = set()
    for cls in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(cls, ast.ClassDef)
                and any(_is_dataclass_decorator(d) for d in cls.decorator_list)):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                continue
            ann = node.annotation
            if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", "") in (
                    "InitVar", "ClassVar"):
                continue
            out.add(f"{cls.name}.{node.target.id}")
    return out


def attribute_reads(path: Path) -> set:
    """Every name read as ``.<name>`` in ``path``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(field_files, reader_files) -> list:
    reads = set().union(*(attribute_reads(p) for p in reader_files))
    declared = set().union(*(dataclass_fields(p) for p in field_files))
    return sorted(f for f in declared if f.split(".")[1] not in reads)


def test_every_dataclass_field_has_a_reader():
    """Each field of a dataclass in the package is read as ``.<field>``
    somewhere in the package, the tests or the benchmark.

    The check is by name: a field that shares its name with any other
    attribute read anywhere passes.  This file is not counted as a reader.
    """
    root = Path(__file__).resolve().parents[1]
    readers = [p for d in (SRC, root / "tests", root / "perfbench")
               for p in sorted(d.glob("*.py")) if p.resolve() != Path(__file__).resolve()]
    assert unread_fields(sorted(SRC.glob("*.py")), readers) == []


def test_detector_finds_a_field_nothing_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import InitVar, dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    written: int = 0\n"
        "    only_init: InitVar[int] = None\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    unread: float\n"
        "class NotData:\n"
        "    ignored: int\n"
        "def use(a):\n"
        "    a.written = a.read\n")
    assert unread_fields([sample], [sample]) == ["A.written", "B.unread"]


def _identifiers(node) -> set:
    """Names, attributes and imported names.  A string that spells a name,
    as a tracer's table of functions to wrap does, is not a use of it."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def named_in(path: Path) -> set:
    """Every identifier ``path`` names outside the definition that binds it:
    a top-level ``def`` or ``class`` does not count as a use of its own name."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        out |= _identifiers(stmt) - {own}
    return out


def unnamed_exports(init: Path, code_files, docs) -> list:
    """Names the package ``init`` imports that no code file names and no
    document mentions."""
    exported = {a.asname or a.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    named = set().union(*(named_in(p) for p in code_files))
    named |= set().union(*(set(re.findall(r"\w+", d.read_text())) for d in docs))
    return sorted(exported - named)


def test_every_export_is_named_outside_the_package_root():
    """Each name ``fkdvlab/__init__.py`` exports is named in another module
    of the package (outside its definition), in the benchmark, or in the
    README, so the export list holds no name that only tests call."""
    root = Path(__file__).resolve().parents[1]
    code = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    code += sorted((root / "perfbench").glob("*.py"))
    assert unnamed_exports(SRC / "__init__.py", code, [root / "README.md"]) == []


def test_detector_finds_an_export_nothing_names(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .ops import (recursive, imported, documented, traced,\n"
                    "                  attribute, unused)\n")
    ops = tmp_path / "ops.py"
    ops.write_text(
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def imported():\n"
        "    '''unused is mentioned in a docstring only'''\n"
        "def unused():\n"
        "    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from .ops import imported\n"
                    "TABLE = {'traced': 1}\n"
                    "def f(m):\n"
                    "    return m.attribute\n")
    readme = tmp_path / "README.md"
    readme.write_text("Call `documented(x)` first.\n")
    assert unnamed_exports(init, [ops, user], [readme]) == ["recursive", "traced", "unused"]


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.strip()


def test_import_loads_no_numpy_polynomial_or_random():
    """Importing the package and its CLI leaves numpy's polynomial and random
    modules unloaded; random_band draws from its own SplitMix64 hash, so no
    command loads numpy.random either."""
    code = ("import sys, fkdvlab, fkdvlab.cli; "
            "print(sorted(m for m in ('numpy.polynomial', 'numpy.random') "
            "if m in sys.modules))")
    assert _fresh_stdout(code) == "[]"


def test_stein_fits_load_no_numpy_polynomial():
    """The slope fit, the non-membership scan and the propagator bound run on
    the literal Gauss-Legendre table and the closed-form line fit, so they
    leave numpy's polynomial module unloaded; the quadrature's edge merge
    and the probe ensemble's max and median sort without numpy.ma."""
    code = ("import sys, numpy as np\n"
            "from fkdvlab import make_grid, stein\n"
            "q = stein.QuadSpec(n_panels=128, y_max=50.0)\n"
            "stein.stein_slope_fit(stein.SteinRequest(\n"
            "    0.5, stein.power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 6), q), 'small_eta')\n"
            "stein.nonmembership_scan(-0.7, 1.0, 0.8, (1e-2, 1e-3, 1e-4))\n"
            "stein.propagator_stein_bound(0.5, 0.5, [1.0], [1.0])\n"
            "stein.probe_ensemble('hilbert_frac', make_grid(256, 50.0),\n"
            "    stein.ProbeParams(beta=0.5), n_pairs=4)\n"
            "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules))")
    assert _fresh_stdout(code) == "[]"
