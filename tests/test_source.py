"""Checks on the library source itself."""

import ast
import importlib
import inspect
import pathlib
import sys

import cuspforge
from cuspforge.families import _FAMILIES, FAMILY_IDS
from cuspforge.hn import _Frozen

PACKAGE = pathlib.Path(cuspforge.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no runtime logic may ride on them
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _absolute_imports():
    """(file name, line, module) of every absolute import in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_runtime_imports_only_the_standard_library():
    found = [f"{file}:{line} {name}" for file, line, name in _absolute_imports()
             if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_dataclasses():
    # the value classes derive from hn._Frozen; `import dataclasses` costs
    # every process that imports the CLI its import and per-class code generation
    found = [f"{file}:{line}" for file, line, name in _absolute_imports()
             if name == "dataclasses"]
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name == "dataclass":
                        found.append(f"{path.name}:{deco.lineno}")
    assert found == []


def test_no_fractions_import():
    # every quantity is computed in exact integers; Fraction routes are test oracles
    found = [f"{file}:{line}" for file, line, name in _absolute_imports()
             if name == "fractions"]
    assert found == []


def test_every_private_name_is_used():
    # a private module- or class-level name that nothing reads is a dead route
    defined, used = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined += [(path.name, node.lineno, name) for name in names
                            if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = [f"{file}:{line} {name}" for file, line, name in defined if name not in used]
    assert found == []


def test_one_indented_json_writer():
    # indented JSON text comes only from cli._json_text, which calls json.dumps
    # on scalars alone; an `indent=` call (or `**kwargs`, which may carry one)
    # elsewhere would bypass it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dumps", "dump", "JSONEncoder") and any(
                    kw.arg == "indent" or kw.arg is None for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _family_id_tests(tree: ast.AST):
    """Line of every comparison or match case against a literal family id."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        literals = [e for o in operands
                    for e in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
        if any(isinstance(e, ast.Constant) and e.value in FAMILY_IDS for e in literals):
            yield node.lineno


def test_family_table_is_the_only_dispatch():
    # a family's formulas live in its `_FAMILIES` entry; only the parameter
    # domains in `_domain_error` may branch on a family id
    path = PACKAGE / "families.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {line for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_domain_error"
               for line in _family_id_tests(node)}
    found = [f"{path.name}:{line}" for line in _family_id_tests(tree) if line not in allowed]
    assert found == []


def test_family_formulas_take_every_parameter():
    found = [f"{fid}.{field}" for fid, family in _FAMILIES.items()
             for field in family._fields[1:]
             if len(inspect.signature(getattr(family, field)).parameters)
             != len(family.names)]
    assert found == []


def test_cli_never_expands_a_resolution():
    # resolve prints from the run form; `.tree` would hold one vertex per blowup
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "tree"]
    assert found == []


def test_invariants_never_lists_entries():
    # invariants prints the multiplicities, the gaps and the Alexander
    # coefficients in pieces; these names hold one object per entry.  The
    # short text rows of `_cmd_invariants` may use `to_text`.
    listing = {"_entry_texts", "entries", "to_text", "gaps", "alexander_polynomial"}
    scanned = {
        ("cli.py", "_cmd_invariants"): listing - {"to_text"} | {"to_json_obj"},
        ("cli.py", "_print_json"): listing,
        ("invariants.py", "CuspRecord._json_fields"): listing,
    }
    nodes = {(file, name): node for file in ("cli.py", "invariants.py")
             for name, node in _function_nodes(PACKAGE / file)}
    found = []
    for (file, function), names in scanned.items():
        for node in ast.walk(nodes[file, function]):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in names:
                found.append(f"{file}:{node.lineno} {name}")
    assert found == []


def _function_nodes(path: pathlib.Path):
    """Qualified name ("f" or "Class.f") and node of every function in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def _trusted_calls(node: ast.AST) -> list[int]:
    """Lines under node that name a `_trusted` constructor."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == "_trusted"]


# data enters the package here, so each of these validates in full
_VALIDATING = {
    "hn.py": {"parse_hn", "HNSequence.from_json_obj", "HNSequence.__init__",
              "HNPair.__init__"},
    "invariants.py": {"parse_multiplicity", "MultiplicitySequence.from_entries",
                      "MultiplicitySequence.from_runs", "MultiplicitySequence.__init__"},
    "divisor.py": {"Chain.__init__"},
    "families.py": {"expected_reduced_multiplicities"},
}


def test_boundaries_never_trust():
    # `_trusted` skips validation; the CLI and the public parsers and
    # constructors hand it nothing
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{line}" for line in _trusted_calls(cli)]
    seen = set()
    for file, names in _VALIDATING.items():
        for name, node in _function_nodes(PACKAGE / file):
            if name in names:
                seen.add((file, name))
                found += [f"{file}:{line} {name}" for line in _trusted_calls(node)]
    assert found == []
    assert seen == {(file, name) for file, names in _VALIDATING.items() for name in names}


def _value_classes():
    """(file name, class node, class) of every value class defined in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = importlib.import_module(
            "cuspforge" if path.stem == "__init__" else f"cuspforge.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if isinstance(cls, type) and issubclass(cls, _Frozen) and cls is not _Frozen:
                yield path.name, node, cls


def test_no_hand_written_trusted_constructor():
    # `_Frozen` compiles `_trusted` from `_fields` for each validating class
    found = [f"{file}:{f.lineno} {node.name}._trusted" for file, node, _ in _value_classes()
             for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "_trusted"]
    assert found == []


def test_only_frozen_writes_fields():
    # a field is written by the setter `_Frozen` compiles, `_fill`, and by
    # nothing else; `_set` stays for derived values and seeded caches
    found = []
    for file, node, cls in _value_classes():
        for n in ast.walk(node):
            if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_set"
                    and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
                    and n.args[1].value in cls._fields):
                found.append(f"{file}:{n.lineno} {node.name}.{n.args[1].value}")
    assert found == []


def _fills_own_parameters(node: ast.FunctionDef) -> bool:
    """Whether the body, past a docstring, is one `self._fill` of the parameters in order."""
    body = [s for s in node.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
    return (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_fill"
            and [getattr(a, "id", None) for a in call.args]
            == [a.arg for a in node.args.args[1:]] and not call.keywords)


def test_no_hand_written_field_copying_constructor():
    # a plain record's `__init__` is its compiled `_fill`; a hand-written one
    # that only passes its parameters on repeats the field list
    found = [f"{path.name}:{node.lineno} {name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name, node in _function_nodes(path)
             if name.endswith(".__init__") and _fills_own_parameters(node)]
    assert found == []


def _trusted_classes() -> set:
    """The class each `X._trusted(...)` call names; `cls` names its enclosing class."""
    named = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Attribute) and n.attr == "_trusted":
                    name = getattr(n.value, "id", None)
                    named.add(top.name if name == "cls" else name)
    return named


def test_trusted_builds_only_classes_of_bare_fields():
    # `_trusted` writes the fields alone, so a class whose constructor also
    # stores a derived value (`PuiseuxCharacteristic.e`, `Semigroup.conductor`)
    # would come out without it
    from test_values import INSTANCES

    def bare(name):
        obj = INSTANCES[name]
        built = type(obj)(*(getattr(obj, f) for f in obj._fields))
        return list(vars(built)) == list(obj._fields)

    named = _trusted_classes()
    assert {"HNSequence", "MultiplicitySequence", "Chain", "WeightedTree"} <= named
    assert [name for name in sorted(named) if not bare(name)] == []
    assert not bare("PuiseuxCharacteristic") and not bare("Semigroup")


def test_package_init_imports_no_submodule():
    # `import cuspforge` runs `__init__.py` alone; a public name imports its
    # submodule on first use, from inside `__getattr__`
    path = PACKAGE / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found, nodes = [], list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # runs when called, not when the package loads
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["cuspforge"] if node.level else [node.module]
        else:
            names = []
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.partition(".")[0] == "cuspforge"]
        nodes.extend(ast.iter_child_nodes(node))
    assert found == []
