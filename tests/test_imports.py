"""The import contract of the package, each check in a fresh interpreter.

`import cuspforge` loads no submodule; a public name loads its submodule
(and what that imports) on first use.  `import cuspforge.cli` still loads
every module the benchmark tracer patches.
"""

import ast
import json
import os
import pathlib
import pickle
import subprocess
import sys

import cuspforge
from cuspforge import HNSequence, WeightedTree, parse_hn

SRC = os.path.dirname(os.path.dirname(cuspforge.__file__))
TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# The public API as the package listed it when its imports were eager:
# each submodule and the names re-exported from it.
PUBLIC = {
    "divisor": (
        "Chain", "ChainIdentityReport", "ContractionResult", "FiberReport",
        "MarkedResolution", "WeightedTree", "adjoint", "blow_down", "blow_up",
        "classify_fiber", "contracts_to_smooth_point", "contracts_to_zero_curve",
        "discriminant", "dot_export", "fiber_multiplicities", "hn_chain_identities",
        "is_negative_definite", "resolution_graph", "star_concat",
    ),
    "errors": (
        "CuspforgeError", "DegenerateRemainder", "EntryBelowTwo", "Inconsistent",
        "NotAFiber", "NotContractible", "NotCoprime", "NotRealizable", "NotReducible",
        "NotStandard", "ParamOutOfDomain",
    ),
    "families": (
        "FAMILY_IDS", "CurveRecord", "DistinctnessReport", "FamilySpec", "check_domain",
        "distinctness_audit", "enumerate_curves", "expected_reduced_multiplicities",
        "fibonacci", "generate",
    ),
    "hn": (
        "RAW", "STANDARD", "HNPair", "HNSequence", "ValidationReport", "Violation",
        "expand_low_p", "format_hn", "parse_hn", "require_valid", "standardize",
        "validate",
    ),
    "invariants": (
        "FULL", "REDUCED", "CuspRecord", "MultiplicitySequence", "PairList",
        "PuiseuxCharacteristic", "Semigroup", "alexander_polynomial",
        "char_to_multiplicity", "char_to_puiseux_pairs", "compute_M_I", "cusp_record",
        "hn_from_zariski", "hn_to_multiplicity", "hn_to_puiseux_char",
        "multiplicity_to_standard_hn", "parse_multiplicity", "parse_puiseux_char",
        "puiseux_char_to_standard_hn", "puiseux_pairs_to_char", "semigroup_of",
        "zariski_from_hn",
    ),
    "verify": (
        "AuditReport", "Check", "FibrationLedger", "check_E2_bounds",
        "check_hn_equations", "fibration_ledger", "full_audit", "kkd",
    ),
}
NAMES = sorted({*PUBLIC, *(name for names in PUBLIC.values() for name in names)})

# the cuspforge modules a process has loaded, as JSON on stdout
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cuspforge.'))))\n"


def fresh(script: str, stdin: bytes = b"") -> bytes:
    """Run `script` in a new interpreter that imports cuspforge from SRC; its stdout."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + script],
                          input=stdin, capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def traced_modules() -> set:
    """The modules of `TRACED` in the benchmark tracer, read from its source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return {f"cuspforge.{module}" for module, _ in traced}


def test_import_loads_no_submodule():
    assert json.loads(fresh("import cuspforge\n" + LOADED)) == []


def test_cusp_record_loads_its_layers_only():
    script = ("import cuspforge as cf\n"
              "cf.cusp_record(cf.parse_hn('13/4'))\n"
              "assert 'cusp_record' in vars(cf)\n" + LOADED)
    assert json.loads(fresh(script)) == [
        "cuspforge.errors", "cuspforge.hn", "cuspforge.invariants"]


def test_cli_loads_every_traced_module():
    # the benchmark child imports cuspforge.cli, and its tracer then reads
    # sys.modules["cuspforge.<m>"] for every traced module
    loaded = set(json.loads(fresh("import cuspforge.cli\n" + LOADED)))
    assert traced_modules() <= loaded
    assert "cuspforge.cli" in loaded


def test_cli_loads_no_code_generation_machinery():
    # the value classes need neither dataclasses nor what it imports; every
    # CLI process and benchmark child would pay for loading them
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    script = ("import cuspforge.cli\n"
              f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n")
    assert json.loads(fresh(script)) == []


def test_cli_compiles_once_per_value_class():
    # `_Frozen` compiles each class's `_fill`, `_trusted`, `__eq__` and
    # `__hash__` in one `exec`; a second one per class would cost every CLI
    # process its compile.  `NamedTuple` runs `eval` too, so the template's
    # runs are told apart by the `_fill` they define.
    script = (
        "import types\n"
        "runs = []\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        runs.append([c.co_name for c in args[0].co_consts\n"
        "                     if isinstance(c, types.CodeType)])\n"
        "sys.addaudithook(hook)\n"
        "import cuspforge.cli\n"
        "from cuspforge.hn import _Frozen\n"
        "print(json.dumps([runs, len(_Frozen.__subclasses__())]))\n"
    )
    runs, classes = json.loads(fresh(script))
    template = {"_fill", "_trusted", "__init__", "__eq__", "__hash__"}
    assert classes == 21
    assert len([names for names in runs if "_fill" in names]) == classes
    assert [names for names in runs if template & set(names) and "_fill" not in names] == []


def test_cli_loads_its_layers_before_argparse():
    # a layer compiled with argparse already resident raises the peak RSS
    # (sys.modules lists a module once it has finished loading)
    order = json.loads(fresh("import cuspforge.cli\nprint(json.dumps(list(sys.modules)))\n"))
    layers = traced_modules() - {"cuspforge.cli"}
    assert layers and all(order.index(m) < order.index("argparse") for m in layers)


def test_public_names_are_their_submodules_objects():
    script = (
        "import importlib\n"
        "import cuspforge\n"
        "public = json.loads(sys.stdin.read())\n"
        "wrong = []\n"
        "for module, names in public.items():\n"
        "    home = importlib.import_module('cuspforge.' + module)\n"
        "    wrong += [module] * (getattr(cuspforge, module) is not home)\n"
        "    wrong += [n for n in names if getattr(cuspforge, n) is not getattr(home, n)]\n"
        "print(json.dumps([wrong, sorted(cuspforge.__all__),\n"
        "                  sorted(n for n in dir(cuspforge) if not n.startswith('_'))]))\n"
    )
    wrong, listed, shown = json.loads(fresh(script, json.dumps(PUBLIC).encode()))
    assert wrong == []
    assert listed == NAMES and len(NAMES) == 88
    assert shown == NAMES


def test_star_import_binds_the_public_names():
    script = ("from cuspforge import *\n"
              "print(json.dumps(sorted(n for n in globals()\n"
              "                        if not n.startswith('_') and n not in ('json', 'sys'))))\n")
    assert json.loads(fresh(script)) == NAMES


def test_dir_lists_every_public_name():
    names = dir(cuspforge)
    assert names == sorted(names)
    assert set(cuspforge.__all__) <= set(names)
    assert "__getattr__" in names


def test_unknown_attribute_is_a_plain_attribute_error():
    script = (
        "import cuspforge\n"
        "try:\n"
        "    cuspforge.no_such_name\n"
        "except Exception as exc:\n"
        "    print(json.dumps([type(exc).__name__, str(exc), exc.name]))\n"
        "print(json.dumps([hasattr(cuspforge, 'cli'), hasattr(cuspforge, 'no_such_name')]))\n"
        "try:\n"
        "    from cuspforge import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(json.dumps(type(exc).__name__))\n"
    )
    lines = fresh(script).decode().splitlines()
    assert [json.loads(line) for line in lines] == [
        ["AttributeError", "module 'cuspforge' has no attribute 'no_such_name'", "no_such_name"],
        [False, False],
        "ImportError",
    ]


def test_pickles_load_after_a_bare_import():
    tree = WeightedTree((-2, -1, -3), ((0, 1), (1, 2)))
    hn = parse_hn("13/4")
    script = (
        "import pickle\n"
        "import cuspforge\n"
        "tree, hn = pickle.loads(sys.stdin.buffer.read())\n"
        "assert type(tree) is cuspforge.WeightedTree and type(hn) is cuspforge.HNSequence\n"
        "sys.stdout.buffer.write(pickle.dumps((tree, hn)))\n"
    )
    back_tree, back_hn = pickle.loads(fresh(script, pickle.dumps((tree, hn))))
    assert back_tree == tree and hash(back_tree) == hash(tree)
    assert isinstance(back_hn, HNSequence) and back_hn == hn
