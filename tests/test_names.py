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


def reads(tree, attributes_only=False):
    """The names that the Name and Attribute nodes of `tree` read, or with
    attributes_only those of its Attribute nodes alone."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                   for node in ast.walk(tree)
                   if isinstance(node, kinds) and isinstance(node.ctx, ast.Load))


def test_every_name_in_the_package_has_a_reader():
    # __init__.py only re-exports
    trees = [ast.parse(p.read_text()) for p in
             Path(splitxray.__file__).parent.glob("*.py")
             if p.name != "__init__.py"]
    # (definition, whether it is a method)
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # dunder methods are called by Python, not by name
                defs += [(n, True) for n in node.body
                         if isinstance(n, ast.FunctionDef)
                         and not n.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node, False))
    # a method is read only through an attribute, so a bare name such as a
    # local function of the same name does not count for it
    name_reads = sum((reads(tree) for tree in trees), Counter())
    attribute_reads = sum((reads(tree, True) for tree in trees), Counter())
    unread = set()
    for node, method in defs:
        total = (attribute_reads if method else name_reads)[node.name]
        # a recursive call reads its own name inside its definition
        if total - reads(node, method)[node.name] <= 0:
            unread.add(node.name)
    assert unread == REFERENCE_ONLY
