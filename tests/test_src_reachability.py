"""Every module under ``src/repro`` has a reader outside ``tests/``.

A reader is a module of ``src/repro`` other than a package ``__init__``,
or a file under ``bench/``, ``benchmarks/``, ``scripts/`` or ``examples/``.
Code that only tests run belongs in ``tests/``, as the oracles there do, so
a module that no reader reads is either dead or in the wrong place.

What counts as reading a module:

* importing it, or importing a name it defines — directly or through the
  package ``__init__``s that re-export it (a re-export is a pass-through,
  not a reader);
* an attribute read through an imported package or module, such as
  ``repro.grid2d_matrix`` after ``import repro``;
* a ``_runner("<module>")`` entry in ``repro/experiments/registry.py``,
  which imports ``repro.experiments.<module>`` on first call.

The walk parses source with ``ast``: it imports nothing and spawns nothing.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READER_DIRS = ("bench", "benchmarks", "scripts", "examples")
REGISTRY = "repro.experiments.registry"

#: Modules kept although nothing outside ``tests/`` reads them.
EXCEPTIONS = {
    "repro.matrices.hb": (
        "reads the real symmetric Harwell-Boeing (RSA) files the paper's "
        "BCSSTK matrices ship as, which scipy.io.hb_read refuses "
        "(tests/test_matrices_hb.py pins that); docs/REPRODUCING.md runs "
        "the experiments on them through it"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class _Package:
    """The modules of ``src/repro`` and the names each package re-exports."""

    def __init__(self) -> None:
        self.paths: dict[str, Path] = {}
        self.packages: set[str] = set()
        self.exports: dict[str, dict[str, str]] = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            name = _module_name(path)
            self.paths[name] = path
            if path.name == "__init__.py":
                self.packages.add(name)
        for pkg in self.packages:
            table = self.exports[pkg] = {}
            for node in ast.walk(_parse(self.paths[pkg])):
                if isinstance(node, ast.ImportFrom):
                    base = self.absolute(node, pkg, is_package=True)
                    for alias in node.names:
                        table[alias.asname or alias.name] = f"{base}.{alias.name}"

    @staticmethod
    def absolute(node: ast.ImportFrom, where: str, is_package: bool) -> str:
        if not node.level:
            return node.module or ""
        parts = where.split(".")
        if not is_package:
            parts = parts[:-1]
        parts = parts[: len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))

    def resolve(self, dotted: str) -> str | None:
        """The module or package that ``dotted`` names or is defined in."""
        if dotted in self.paths:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if head in self.packages and tail in self.exports[head]:
            return self.resolve(self.exports[head][tail])
        if head in self.paths and head not in self.packages:
            return head
        return None


def _reads(tree: ast.Module, where: str, pkg: _Package) -> set[str]:
    """Every module of ``src/repro`` that one file (module ``where``, or
    ``""`` outside ``src/``) reads."""
    dotted: list[str] = []
    bound: dict[str, str] = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                dotted.append(alias.name)
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bound[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = pkg.absolute(node, where, is_package=False)
            dotted.append(base)
            for alias in node.names:
                full = f"{base}.{alias.name}"
                dotted.append(full)
                if full in pkg.paths:
                    bound[alias.asname or alias.name] = full
        elif (where == REGISTRY and isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_runner"
              and node.args and isinstance(node.args[0], ast.Constant)):
            dotted.append(f"repro.experiments.{node.args[0].value}")
    for node in ast.walk(tree):
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound and chain:
            name = bound[node.id]
            for attr in reversed(chain):
                name = f"{name}.{attr}"
                dotted.append(name)
    read = {pkg.resolve(d) for d in dotted if d.startswith("repro")}
    return read - {None, where} - pkg.packages


@functools.cache
def _unread() -> frozenset[str]:
    pkg = _Package()
    read: set[str] = set()
    for name, path in pkg.paths.items():
        if name not in pkg.packages:
            read |= _reads(_parse(path), name, pkg)
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            read |= _reads(_parse(path), "", pkg)
    modules = {
        name for name, path in pkg.paths.items()
        if name not in pkg.packages and path.name != "__main__.py"
    }
    return frozenset(modules - read)


def test_every_src_module_has_a_reader_outside_tests():
    unread = _unread() - set(EXCEPTIONS)
    assert not unread, (
        "modules under src/repro that no façade, CLI, experiment, bench row, "
        "script or example reads (delete them, or move them into tests/ if "
        f"a test compares against them): {sorted(unread)}"
    )


def test_every_exception_is_still_needed():
    unread = _unread()
    for name, reason in EXCEPTIONS.items():
        assert reason.strip(), f"{name}: an exception needs its reason"
        assert (SRC / Path(*name.split("."))).with_suffix(".py").exists(), (
            f"{name} is gone: drop its exception"
        )
        assert name in unread, f"{name} has a reader now: drop its exception"
