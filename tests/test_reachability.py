"""Every module under ``src/repro`` earns a caller.

A module is *reached* when a root imports it, directly or through
modules that are themselves reached.  The roots are what a user or the
benchmark runs: ``repro.cli``, ``repro.__main__`` and every script in
``benchmarks/e2e``.  The scan reads import statements with :mod:`ast`,
so nothing is executed:

- imports inside function bodies count (the CLI imports lazily);
- ``from repro.pkg import Name`` reaches the module that *defines*
  ``Name``, following the package's re-exports;
- a package ``__init__`` never reaches its own submodules, so a module
  that only its package re-exports is not reached.

A module that no root reaches must either be deleted or be a key of
:data:`CLAIMED`, which names the EXPERIMENTS.md section reporting the
results it produced.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"
ROOT_MODULES = ("repro.cli", "repro.__main__")

#: Modules no root imports, kept because EXPERIMENTS.md reports results
#: from them (module -> the EXPERIMENTS.md heading, without ``## ``).
CLAIMED = {
    "repro.env.image_state": "Section 5 future work — implemented and measured",
    "repro.nn.conv": "Section 5 future work — implemented and measured",
    "repro.experiments.generalization": (
        'Sections 1/5 "beyond 2BSM" — zero-shot generalization'
    ),
}


def _module_paths(src_root: Path) -> dict[str, Path]:
    """Dotted module name -> file for every module of the package."""
    out = {}
    for path in sorted((src_root / "repro").rglob("*.py")):
        parts = list(path.relative_to(src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _is_package(name: str, paths: dict[str, Path]) -> bool:
    return paths[name].name == "__init__.py"


def _definer(module: str, attr: str, paths) -> str:
    """The module that defines ``attr`` as seen from ``module``."""
    if f"{module}.{attr}" in paths:
        return f"{module}.{attr}"
    if not _is_package(module, paths):
        return module
    tree = ast.parse(paths[module].read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in paths:
            for alias in node.names:
                if (alias.asname or alias.name) == attr:
                    return _definer(node.module, alias.name, paths)
    return module


def _targets(tree: ast.AST, name: str | None, paths) -> set[str]:
    """Modules of the package that the imports in ``tree`` reach."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                dotted = alias.name
                while dotted and dotted not in paths:
                    dotted = dotted.rpartition(".")[0]
                if dotted:
                    found.add(dotted)
        elif isinstance(node, ast.ImportFrom) and node.module in paths:
            found.update(
                _definer(node.module, alias.name, paths)
                for alias in node.names
            )
    if name is not None and _is_package(name, paths):
        found = {t for t in found if not t.startswith(name + ".")}
    return found


def unreached_modules(src_root: Path, claimed=CLAIMED) -> list[str]:
    """Non-``__init__`` modules no root reaches and no claim keeps."""
    paths = _module_paths(src_root)
    frontier = set(ROOT_MODULES)
    for script in sorted(E2E.glob("*.py")):
        frontier |= _targets(ast.parse(script.read_text()), None, paths)
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        tree = ast.parse(paths[name].read_text())
        frontier |= _targets(tree, name, paths) - reached
    return sorted(
        name
        for name in paths
        if name not in reached
        and name not in claimed
        and not _is_package(name, paths)
    )


def test_every_module_is_reached_or_claimed():
    missing = unreached_modules(SRC)
    assert not missing, (
        "modules no CLI subcommand or benchmarks/e2e workload reaches "
        "(delete them, or claim the EXPERIMENTS.md section they back): "
        + ", ".join(missing)
    )


def test_claims_name_experiments_sections_of_unreached_modules():
    headings = {
        line[3:].strip()
        for line in (REPO / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("## ")
    }
    for module, heading in CLAIMED.items():
        assert heading in headings, f"{module}: no section {heading!r}"
    # A claim on a module some root reaches would hide nothing; drop it.
    stale = set(CLAIMED) - set(unreached_modules(SRC, claimed={}))
    assert not stale, f"claimed modules are reached anyway: {sorted(stale)}"


def test_design_table_lists_every_module():
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 7. Reachability"):]
    listed = {
        line.split("`")[1]
        for line in section.splitlines()
        if line.startswith("| `repro.")
    }
    paths = _module_paths(SRC)
    modules = {name for name in paths if not _is_package(name, paths)}
    assert listed == modules, (
        f"missing from DESIGN.md: {sorted(modules - listed)}; "
        f"listed but gone: {sorted(listed - modules)}"
    )


@pytest.mark.parametrize(
    "reexport, cli_import, expected",
    [
        (False, None, ["repro.chem.orphan"]),
        # The CLI imports the package that re-exports the orphan: running
        # that import would load the orphan, but nothing uses it.
        (True, "import repro.chem", ["repro.chem.orphan"]),
        (True, "from repro.chem import orphan_fn", []),
    ],
)
def test_scan_names_an_orphan_module(tmp_path, reexport, cli_import, expected):
    before = unreached_modules(SRC)
    shutil.copytree(
        SRC / "repro",
        tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    chem = tmp_path / "repro" / "chem"
    (chem / "orphan.py").write_text(
        "from repro.chem.molecule import Molecule\n\n\n"
        "def orphan_fn(mol: Molecule) -> int:\n    return mol.n_atoms\n"
    )
    if reexport:
        init = chem / "__init__.py"
        init.write_text(
            init.read_text() + "\nfrom repro.chem.orphan import orphan_fn\n"
        )
    if cli_import:
        cli = tmp_path / "repro" / "cli.py"
        cli.write_text(
            cli.read_text() + f"\n\ndef _orphan():\n    {cli_import}\n"
        )
    assert unreached_modules(tmp_path) == sorted(before + expected)
