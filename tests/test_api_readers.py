"""Every module-level function and class of ``sdcl`` has a reader in ``sdcl``,
and every defaulted parameter has a caller there that passes it.

A name that no code in ``src/sdcl`` refers to, outside its own definition, is
API that only tests call. Such a name either goes, or it is listed in
``ALLOWED`` with the reason it stays. Likewise a parameter with a default
that no call in ``src/sdcl`` passes is an option only tests set: it goes, or
``ALLOWED_DEFAULTS`` says why it stays.
"""

import ast
import importlib
import sys
from pathlib import Path

import sdcl

SRC = Path(sdcl.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench sits at the repository root
    sys.path.insert(0, str(ROOT))

ALLOWED = {
    "analog_gaps": "acceptance criterion 8 reads it",
    "analog_spread": "acceptance criterion 8 reads it",
    "lemma_a1_check": "acceptance criterion 7 reads it",
    "contrastive_loss": "scalar reference of criterion 4's reduction identity",
    "debiased_loss": "criterion 4's scalar view of the training kernel, debiased_negatives",
    "eta_of": "perfbench traces it by name on the bounds workload",
    "generate_report": "perfbench traces it by name on the tradeoff workload",
    "g_estimate": "criterion 5's one-row view of the training kernel, debiased_negatives",
    "exact_negative_pmf": "acceptance criterion 3 reads it",
}

# "module.function.parameter" (methods: "module.Class.method.parameter")
ALLOWED_DEFAULTS = {
    "eta.eta_of.tokens": "eta_of stays for perfbench; tests pass tokens to check eta_LM per sample",
    "cli.main.argv": "entry point; the console script passes nothing",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unread_names() -> set[str]:
    trees = list(_trees().values())
    definitions = [
        node for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    references = []  # (name, id of every definition the reference sits in)
    for tree in trees:
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    references.append((name, id(top)))
    return {
        node.name for node in definitions
        if not any(name == node.name and top != id(node) for name, top in references)
    }


def test_every_definition_is_read_by_the_program_or_allowed():
    unread = unread_names()
    assert sorted(unread - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unread) == []  # an entry whose name gained a reader goes


def unpassed_defaults() -> set[str]:
    """Defaulted parameters of module-level functions and methods that no call
    in ``src/sdcl`` passes, by keyword, by position, or through a splat."""
    trees = _trees()
    functions = []  # (qualified name, definition, is a method)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{module}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                functions += [(f"{module}.{node.name}.{sub.name}", sub, True)
                              for sub in node.body if isinstance(sub, ast.FunctionDef)]
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = set()
    for qualified, fn, is_method in functions:
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = positional[len(positional) - len(fn.args.defaults):] + [
            arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        callers = [call for call in calls
                   if getattr(call.func, "id", getattr(call.func, "attr", None)) == fn.name]
        for arg in defaulted:
            # a bound method's call leaves out self
            index = positional.index(arg) - is_method if arg in positional else None
            if not any(
                any(kw.arg in (arg.arg, None) for kw in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index)
                for call in callers
            ):
                unpassed.add(f"{qualified}.{arg.arg}")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_the_program_or_allowed():
    unpassed = unpassed_defaults()
    assert sorted(unpassed - set(ALLOWED_DEFAULTS)) == []
    assert sorted(set(ALLOWED_DEFAULTS) - unpassed) == []  # a stale entry goes


def perfbench_functions() -> set[str]:
    """``module.function`` of every ``sdcl`` function that perfbench's layer
    targets resolve (``train._Adam.update`` for a method)."""
    from perfbench.layers import targets

    found = set()
    for target in targets(128):
        owner = importlib.import_module(target.module)
        for name in target.path.split("."):
            owner = getattr(owner, name, None)
        if callable(owner):
            found.add(f"{target.module.removeprefix('sdcl.')}.{target.path}")
    return found


def test_perfbench_allowances_name_functions_it_traces():
    traced = perfbench_functions()
    names = {qualified.rsplit(".", 1)[1] for qualified in traced}
    for name, reason in ALLOWED.items():
        if "perfbench" in reason:
            assert name in names, name
    for qualified, reason in ALLOWED_DEFAULTS.items():
        if "perfbench" in reason:
            assert qualified.rsplit(".", 1)[0] in traced, qualified
