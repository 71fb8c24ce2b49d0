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

The same rule holds one grain finer, for names.  Every top-level
function and class of a non-``__init__`` module, and every public
method and property of those classes, must be referenced by non-test
code: the modules under ``src/repro`` (package ``__init__`` re-exports
do not count), ``benchmarks/e2e/*.py`` and ``examples/*.py``.  A
reference is an :mod:`ast` ``Name`` load, an ``Attribute``, an import
alias or a string constant that is an identifier (``getattr`` lookups
and registries).  A module-level ``from M import X`` counts only if the
importing module loads ``X`` or lists it in ``__all__``: an unused
import keeps nothing alive.  Top-level names match through the module that defines
them; methods match on the attribute name anywhere, which keeps the
rule conservative for protocols.  References made inside a name count
only once that name is itself referenced (a fixed point), so a chain of
helpers that only an unreferenced function calls is named whole.  A
name stays unreferenced only as a key of :data:`CLAIMED` or of
:data:`REFERENCES`, the test oracles live code is compared against.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"
EXAMPLES = REPO / "examples"
ROOT_MODULES = ("repro.cli", "repro.__main__")

#: Modules no root imports, and names no non-test code references, kept
#: because EXPERIMENTS.md reports results from them (dotted module or
#: name -> the EXPERIMENTS.md heading, without ``## ``).
CLAIMED = {
    "repro.env.image_state": "Section 5 future work — implemented and measured",
    "repro.nn.conv": "Section 5 future work — implemented and measured",
    "repro.experiments.generalization": (
        'Sections 1/5 "beyond 2BSM" — zero-shot generalization'
    ),
    "repro.experiments.generalization.run_generalization_experiment": (
        'Sections 1/5 "beyond 2BSM" — zero-shot generalization'
    ),
}

#: Names no non-test code references, kept because tests compare live
#: code against them (dotted name -> the test file that imports it).
_PARITY = "tests/test_scoring_parity.py"
_TERMS = "tests/test_scoring_terms.py"
REFERENCES = {
    "repro.scoring.reference.sequential_lj_energy": _PARITY,
    "repro.scoring.lennard_jones.lennard_jones_energy": _PARITY,
    "repro.scoring.lennard_jones.lennard_jones_energy_matrix": _TERMS,
    "repro.scoring.lennard_jones.lj_pair": _TERMS,
    "repro.scoring.lennard_jones.lj_minimum": _TERMS,
    "repro.scoring.hbond.hbond_1210_pair": _TERMS,
    "repro.scoring.pairwise.pairwise_distances": _PARITY,
    "repro.scoring.composite.score_pose_batch": (
        "tests/test_scoring_incremental.py"
    ),
    "repro.screening.policy._greedy_rollout_loop": (
        "tests/test_screening_service.py"
    ),
    # The bare-policy ``.npz`` format docs/SCREENING.md documents.
    "repro.nn.checkpoints.save_network": "tests/test_nn_training.py",
    "repro.nn.checkpoints.load_network": "tests/test_nn_training.py",
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
    modules = set(CLAIMED) & set(_module_paths(SRC))
    stale = modules - set(unreached_modules(SRC, claimed={}))
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


# -- names ------------------------------------------------------------------
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _items(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, plus public methods as ``C.m``."""
    out = []
    for top in tree.body:
        if isinstance(top, _DEFS):
            out.append(top.name)
        if isinstance(top, ast.ClassDef):
            out += [
                f"{top.name}.{node.name}"
                for node in top.body
                if isinstance(node, _FUNCS) and not node.name.startswith("_")
            ]
    return out


def _scopes(tree: ast.Module):
    """``(owner, node)`` pairs: the item each node's code belongs to.

    The owner is None at module level, the top-level name inside a
    function or class, and ``C.m`` inside a public method.
    """

    def walk(node, owner):
        for sub in ast.walk(node):
            yield owner, sub

    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for child in ast.iter_child_nodes(top):
                public = isinstance(child, _FUNCS) and not (
                    child.name.startswith("_")
                )
                owner = f"{top.name}.{child.name}" if public else top.name
                yield from walk(child, owner)
        else:
            yield from walk(top, top.name if isinstance(top, _DEFS) else None)


def _references(
    node: ast.AST, module: str | None, paths, loaded: set[str] | None = None
) -> set[tuple]:
    """What one node refers to: ``("def", module, name)`` for a name
    bound in a known module, ``("any", name)`` for an attribute or an
    identifier string, which may name a method or a function anywhere.
    With ``loaded`` given, an imported name refers to its definition only
    if it is in ``loaded``."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {("def", module, node.id)} if module else set()
    if isinstance(node, ast.Attribute):
        return {("any", node.attr)}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {("any", node.value)} if node.value.isidentifier() else set()
    if isinstance(node, ast.ImportFrom) and node.module in paths:
        return {
            ("def", _definer(node.module, alias.name, paths), alias.name)
            for alias in node.names
            if loaded is None or (alias.asname or alias.name) in loaded
        }
    return set()


def unreached_names(
    src_root: Path, kept=(*CLAIMED, *REFERENCES), roots=(E2E, EXAMPLES)
) -> list[str]:
    """Dotted names no non-test code references and ``kept`` does not list."""
    paths = _module_paths(src_root)
    files = [
        (name, path)
        for name, path in paths.items()
        if not _is_package(name, paths)
    ]
    files += [
        (None, path) for root in roots for path in sorted(root.glob("*.py"))
    ]
    items: set[str] = set()
    # (module, owner) -> references made by that owner's code.
    refs: dict[tuple, set] = {}
    for module, path in files:
        tree = ast.parse(path.read_text())
        if module is not None:
            items.update(f"{module}.{item}" for item in _items(tree))
        # A module-level import the module never loads is no reference
        # (an ``__all__`` listing is one through its identifier string).
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for owner, node in _scopes(tree):
            # Everything in a root script runs; only items can be dead.
            key = (module, owner if module else None)
            refs.setdefault(key, set()).update(
                _references(
                    node, module, paths, loaded if owner is None else None
                )
            )
    reached = {name for name in kept if name in items}
    seen: set[tuple] = set()
    live_any: set[str] = set()
    live_def: set[str] = set()

    def live(module, owner) -> bool:
        if owner is None:
            return True
        cls = f"{module}.{owner.partition('.')[0]}"
        return cls in reached and f"{module}.{owner}" in reached

    grew = True
    while grew:
        grew = False
        for key, found in refs.items():
            if key in seen or not live(*key):
                continue
            seen.add(key)
            grew = True
            for ref in found:
                if ref[0] == "any":
                    live_any.add(ref[1])
                else:
                    live_def.add(f"{ref[1]}.{ref[2]}")
        for item in items - reached:
            if item.rpartition(".")[2] in live_any or item in live_def:
                reached.add(item)
                grew = True
    return sorted(items - reached)


def _imports(test_file: Path, dotted: str, paths) -> bool:
    """Does ``test_file`` import the name ``dotted`` from its module?"""
    module, _, name = dotted.rpartition(".")
    for node in ast.walk(ast.parse(test_file.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in paths:
            for alias in node.names:
                if alias.name == name and (
                    _definer(node.module, name, paths) == module
                ):
                    return True
    return False


def test_every_name_is_referenced_or_kept():
    missing = unreached_names(SRC)
    assert not missing, (
        "names no non-test code references (delete them, move test-only "
        "helpers under tests/, or list a test oracle in REFERENCES): "
        + ", ".join(missing)
    )


def test_kept_names_are_unreferenced_and_imported_by_their_tests():
    paths = _module_paths(SRC)
    unkept = set(unreached_names(SRC, kept=()))
    names = {k for k in (*CLAIMED, *REFERENCES) if k not in paths}
    stale = sorted(names - unkept)
    assert not stale, f"kept names are referenced anyway: {stale}"
    for name, test_file in REFERENCES.items():
        assert _imports(REPO / test_file, name, paths), (
            f"{test_file} does not import {name}"
        )


def _orphan_tree(tmp_path: Path, source: str) -> Path:
    shutil.copytree(
        SRC / "repro",
        tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    target = tmp_path / "repro" / "chem" / "molecule.py"
    target.write_text(target.read_text() + source)
    return tmp_path


@pytest.mark.parametrize(
    "source, expected",
    [
        ("\n\ndef orphan_fn():\n    return 1\n", ["orphan_fn"]),
        # Called only from inside another unreferenced function.
        (
            "\n\ndef helper():\n    return 1\n\n\n"
            "def orphan_fn():\n    return helper()\n",
            ["helper", "orphan_fn"],
        ),
        # A method only an unreferenced class's code calls.
        (
            "\n\nclass Orphan:\n    def orphan_method(self):\n"
            "        return self.orphan_method()\n",
            ["Orphan", "Orphan.orphan_method"],
        ),
        # Referenced from module level: reached.
        (
            "\n\ndef orphan_fn():\n    return 1\n\n\nVALUE = orphan_fn()\n",
            [],
        ),
    ],
    ids=["orphan", "helper-of-orphan", "method-of-orphan", "module-level-use"],
)
def test_scan_names_an_orphan_name(tmp_path, source, expected):
    root = _orphan_tree(tmp_path, source)
    assert unreached_names(root) == [
        f"repro.chem.molecule.{name}" for name in expected
    ]


@pytest.mark.parametrize(
    "importer_tail, expected",
    [
        ("", ["orphan_fn"]),
        ("\n_ALIAS = orphan_fn\n", []),
        ("\n__all__ = ['orphan_fn']\n", []),
    ],
    ids=["unused-import", "import-loaded", "import-in-all"],
)
def test_scan_names_a_name_kept_only_by_an_unused_import(
    tmp_path, importer_tail, expected
):
    root = _orphan_tree(tmp_path, "\n\ndef orphan_fn():\n    return 1\n")
    importer = root / "repro" / "chem" / "builders.py"
    importer.write_text(
        importer.read_text()
        + "\nfrom repro.chem.molecule import orphan_fn\n"
        + importer_tail
    )
    assert unreached_names(root) == [
        f"repro.chem.molecule.{name}" for name in expected
    ]


def test_reference_whose_test_no_longer_imports_it_is_named(tmp_path):
    paths = _module_paths(SRC)
    test_file = tmp_path / "test_oracle.py"
    test_file.write_text("from repro.scoring import lennard_jones\n")
    assert not _imports(
        test_file, "repro.scoring.lennard_jones.lj_pair", paths
    )
    test_file.write_text("from repro.scoring.lennard_jones import lj_pair\n")
    assert _imports(test_file, "repro.scoring.lennard_jones.lj_pair", paths)
