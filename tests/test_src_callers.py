"""`src` ships only what the verifier runs: every public function and
public method of the package has a caller inside the package.

Routes that only tests run live in tests/oracles.py.  The check reads the
source with `ast`, not the running program: a module-level function counts
as called when its name is read (`f`) or looked up as an attribute
(`module.f`) anywhere in src outside its own body, and a method when it
is looked up as an attribute.  Imports do not count, so re-exporting a
name from `cdindex/__init__.py` does not keep it in src.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdindex"

# Public names kept in src although nothing in src calls them.
ALLOWED = {
    # perfbench/tracer.py counts its calls (`flips.word.calls`); ROADMAP
    # item 8 moves it out of src once the tracer stops reading it.
    "TSetTable.word",
    # A property of the built interval that the tests and oracles read 24
    # times; in src only `flag_cd_index` read it before that moved to
    # tests/oracles.py.  The scan takes its gaps from `TSetTable.gaps`.
    "BruhatInterval.length_diff",
}

# Public method names that more than one class in src defines, each with
# what reads it in src.  A method counts as called when its name is looked
# up as an attribute, so one read of a shared name keeps every method of
# that name; this list makes each sharing name say which reads hold it.
SHARED = {
    # `verify_coefficient` reads `CompleteCdIndex.coefficient`, which reads
    # the graded part's `_WordPolynomial.coefficient`, as does
    # `check_restricted_counts` on the shelling splits.
    "coefficient": "verify_coefficient, CompleteCdIndex.coefficient, check_restricted_counts",
    # `cmd_compute` prints `CompleteCdIndex.to_json`, whose `parts_json`
    # reads each part's `_WordPolynomial.to_json`; `scan_interval` writes
    # each `FlipWitness.to_json`.
    "to_json": "cmd_compute, CompleteCdIndex.parts_json, scan_interval",
    # `_WordPolynomial.__repr__` sorts by it, so CDPolynomial's override
    # (c has degree 1, d degree 2) orders the terms in printed cd-indices.
    "word_degree": "_WordPolynomial.__repr__",
}


def references(node):
    """Counter of ("name", id) and ("attr", attr) reads under `node`."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found["attr", sub.attr] += 1
    return found


def public_definitions(tree):
    """(qualified name, def node, is a method) for the public module-level
    functions and the public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def uncalled_definitions(src=SRC):
    """The qualified names of public definitions that nothing else in src reads."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    everywhere = sum((references(tree) for tree in trees), Counter())
    uncalled = set()
    for tree in trees:
        for qualname, node, is_method in public_definitions(tree):
            elsewhere = everywhere - references(node)
            kinds = ("attr",) if is_method else ("attr", "name")
            if not any(elsewhere[kind, node.name] for kind in kinds):
                uncalled.add(qualname)
    return uncalled


def shared_method_names(src=SRC):
    """The public method names that more than one class in src defines."""
    owners = Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, _, is_method in public_definitions(tree):
            if is_method:
                owners[qualname.split(".")[1]] += 1
    return {name for name, count in owners.items() if count > 1}


def test_every_public_function_has_a_caller_in_src():
    assert uncalled_definitions() == ALLOWED


def test_every_shared_method_name_is_listed_with_its_readers():
    """A shared name hides a method that nothing calls, as
    `RestrictedCountReport.consistent` hid behind
    `CoefficientReport.consistent`; so each one is listed with its reads."""
    assert shared_method_names() == set(SHARED)


def test_the_scan_flags_a_definition_read_only_by_itself_or_an_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class K:\n    def method(self):\n        return self.method\n\n"
        "    def called(self):\n        return 0\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import K, recursive\n\nK().called()\n", encoding="utf-8"
    )
    assert uncalled_definitions(tmp_path) == {"recursive", "K.method"}
    assert shared_method_names(tmp_path) == set()
    (tmp_path / "c.py").write_text(
        "class L:\n    def method(self):\n        return 0\n", encoding="utf-8"
    )
    assert shared_method_names(tmp_path) == {"method"}
