"""Every function, class and method of the package is read by the package,
or is named in REFERENCE_ONLY."""

import ast
from collections import Counter
from pathlib import Path

import splitxray

# Read only by tests, as per-call references or in tests of their own, and
# for run and xray_moments by the benchmark.
REFERENCE_ONLY = {"run", "xray_moments", "constant_gauge"}


def _owner(node):
    """The name an Attribute node reads from: `a` in a.x and in m.a.x."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    return value.attr if isinstance(value, ast.Attribute) else None


def reads(tree, attributes_only=False, owners=None):
    """The names that the Name and Attribute nodes of `tree` read, or with
    attributes_only those of its Attribute nodes alone, or with owners those
    of its Attribute nodes that read from one of the names in `owners`."""
    kinds = (ast.Attribute if attributes_only or owners
             else (ast.Name, ast.Attribute))
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                   for node in ast.walk(tree)
                   if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)
                   and (owners is None or _owner(node) in owners))


def class_bound(method):
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
               for d in method.decorator_list)


def test_every_name_in_the_package_has_a_reader():
    # __init__.py only re-exports
    trees = [ast.parse(p.read_text()) for p in
             Path(splitxray.__file__).parent.glob("*.py")
             if p.name != "__init__.py"]
    # (definition, its class if it is a method)
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # dunder methods are called by Python, not by name
                defs += [(n, node) for n in node.body
                         if isinstance(n, ast.FunctionDef)
                         and not n.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node, None))
    # a method is read only through an attribute, so a bare name such as a
    # local function of the same name does not count for it; a classmethod
    # or staticmethod only through its class, as Cls.name or module.Cls.name,
    # or inside the class as cls.name or self.name
    name_reads = sum((reads(tree) for tree in trees), Counter())
    attribute_reads = sum((reads(tree, True) for tree in trees), Counter())
    unread = set()
    for node, cls in defs:
        if cls is None:
            total = name_reads[node.name] - reads(node)[node.name]
        elif class_bound(node):
            total = (sum(reads(tree, owners={cls.name})[node.name]
                         for tree in trees)
                     + reads(cls, owners={"cls", "self"})[node.name]
                     - reads(node, owners={cls.name, "cls", "self"})[node.name])
        else:
            total = attribute_reads[node.name] - reads(node, True)[node.name]
        # a recursive call reads its own name inside its definition, which
        # the subtractions above take out
        if total <= 0:
            unread.add(node.name)
    assert unread == REFERENCE_ONLY
