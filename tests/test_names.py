"""Every function, class and method of the package is read by the package,
or is named in REFERENCE_ONLY."""

import ast
from collections import Counter
from pathlib import Path

import splitxray

# Read only by tests, as per-call references or in tests of their own, and
# for run and xray_moments by the benchmark.
REFERENCE_ONLY = {"run", "xray_moments", "ambient_transform", "box_diag",
                  "chart_to_diag", "diag_to_chart", "proj_eq",
                  "quadric_residual", "incidence", "constant_gauge"}


def names(tree):
    """The names that the Name and Attribute nodes of `tree` read or bind."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_name_in_the_package_has_a_reader():
    # __init__.py only re-exports
    trees = [ast.parse(p.read_text()) for p in
             Path(splitxray.__file__).parent.glob("*.py")
             if p.name != "__init__.py"]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # dunder methods are called by Python, not by name
                defs += [n for n in node.body if isinstance(n, ast.FunctionDef)
                         and not n.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
    reads = sum(map(names, trees), Counter())
    # a recursive call reads its own name inside its definition
    for node in defs:
        reads[node.name] -= names(node)[node.name]
    assert {node.name for node in defs if reads[node.name] <= 0} == REFERENCE_ONLY
