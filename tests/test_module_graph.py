"""The package's module graph: every fkdvlab import sits at module level, so
the graph is what the import lines at the top of each module say it is."""

import ast
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
