"""The package's modules import one another only along the edges listed here.

flatcount counts flats along routes that check one another: the matrix
formulas, species composition and its DSL, the two oracles and the
bijections. A route that starts to use another route's code weakens that
cross-check without any test failing, so every import between the
package's modules must be an edge of ALLOWED, and each edge gives its
reason. A new edge fails here until it is added on purpose, and an edge
that no import uses any more fails too.
"""

import ast
from pathlib import Path

import pytest

import flatcount

PACKAGE = Path(flatcount.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# The value-type base class; any module may build on it.
SHARED = {"record"}

ANY = None  # every name of the imported module
# (importer, imported module): (the names it may import, or ANY; why).
ALLOWED = {
    ("bijections", "enumeration"): (
        {"ordered_set_partitions"},
        "a structure is a chain of ordered set partitions of its labels",
    ),
    ("bijections", "oracle"): (
        {"HeightFunction", "sorted_labels"},
        "the maps take and return the oracles' height functions, and accept "
        "label sets by the same rule; neither is a route of its own",
    ),
    ("oracle", "enumeration"): (
        {"set_partitions"},
        "the gain oracle weights the connected blocks of each set partition",
    ),
    ("species", "triangles"): (
        {"binary_power", "Triangle", "DEFAULT_ORDER"},
        "iterated composition squares with the one powering loop that "
        "mat_pow also uses, and the Bell transform returns a Triangle",
    ),
    ("dsl", "species"): (ANY, "the DSL evaluates species expressions with the species operations"),
    ("dsl", "triangles"): (ANY, "the DSL's default order is the formulas' one"),
    ("cli", "dsl"): (ANY, "`eval` parses and evaluates DSL expressions"),
    ("cli", "oracle"): (ANY, "`oracle` and `verify` run the oracles"),
    ("cli", "species"): (ANY, "`eval` reports a composition with a constant term"),
    ("cli", "triangles"): (ANY, "`count`, `table` and `verify` read the formula columns"),
    ("__init__", "bijections"): (ANY, "the package re-exports the public names"),
    ("__init__", "dsl"): (ANY, "the package re-exports the public names"),
    ("__init__", "oracle"): (ANY, "the package re-exports the public names"),
    ("__init__", "species"): (ANY, "the package re-exports the public names"),
    ("__init__", "triangles"): (ANY, "the package re-exports the public names"),
    ("__main__", "cli"): (ANY, "`python -m flatcount` runs the command line"),
}


def package_imports(source: str) -> dict[str, set[str]]:
    """The package modules that `source` imports anywhere, each with the
    names taken from it ("*" for the module object itself)."""
    edges: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "flatcount" and rest:
                    edges.setdefault(rest.partition(".")[0], set()).add("*")
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        target = node.module or ""
        if node.level == 0:
            head, _, target = target.partition(".")
            if head != "flatcount":
                continue
        if target:
            names = {alias.name for alias in node.names}
            edges.setdefault(target.partition(".")[0], set()).update(names)
        else:
            # `from . import x` takes the module x itself.
            for alias in node.names:
                edges.setdefault(alias.name, set()).add("*")
    return edges


IMPORTS = {module: package_imports((PACKAGE / f"{module}.py").read_text()) for module in MODULES}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .oracle import HeightFunction", {"oracle": {"HeightFunction"}}),
        ("from . import dsl", {"dsl": {"*"}}),
        ("from flatcount import dsl", {"dsl": {"*"}}),
        ("from flatcount.species import CountSeq as C", {"species": {"CountSeq"}}),
        ("import flatcount.triangles", {"triangles": {"*"}}),
        ("import os\nfrom operator import mul\nimport flatcount", {}),
        (
            "def f():\n    from .enumeration import set_partitions",
            {"enumeration": {"set_partitions"}},
        ),
    ],
)
def test_the_import_reader_sees_each_form(source, expected):
    assert package_imports(source) == expected


@pytest.mark.parametrize("module", MODULES)
def test_imports_follow_the_allowed_edges(module):
    for target, names in IMPORTS[module].items():
        assert target in MODULES, f"{module} imports unknown module {target}"
        if target in SHARED:
            continue
        assert (module, target) in ALLOWED, f"new edge {module} -> {target}: {sorted(names)}"
        allowed, _ = ALLOWED[module, target]
        if allowed is not ANY:
            assert names <= allowed, f"{module} -> {target} takes {sorted(names - allowed)}"


def test_every_allowed_edge_is_used():
    for (module, target), (allowed, reason) in ALLOWED.items():
        assert reason, (module, target)
        names = IMPORTS[module].get(target)
        assert names, f"stale edge {module} -> {target}"
        if allowed is not ANY:
            assert names == allowed, f"{module} -> {target} no longer takes {sorted(allowed - names)}"
