"""Every module-level function and class of ``sdcl`` has a reader in ``sdcl``.

A name that no code in ``src/sdcl`` refers to, outside its own definition, is
API that only tests call. Such a name either goes, or it is listed in
``ALLOWED`` with the reason it stays.
"""

import ast
from pathlib import Path

import sdcl

SRC = Path(sdcl.__file__).resolve().parent

ALLOWED = {
    "analog_gaps": "acceptance criterion 8 reads it",
    "analog_spread": "acceptance criterion 8 reads it",
    "lemma_a1_check": "acceptance criterion 7 reads it",
    "contrastive_loss": "scalar reference of criterion 4's reduction identity",
    "debiased_loss": "scalar reference of criterion 4's reduction identity",
    "g_estimate_many": "criterion 5's clamp fuzz evaluates it over many draws",
    "eta_of": "perfbench traces it by name on the bounds workload",
    "generate_report": "perfbench traces it by name on the tradeoff workload",
    "g_estimate": "unit-test-only scalar estimator; no program path reads it yet",
    "decomposition_residual": "unit-test-only check of D = rho(c) D_c + (1 - rho(c)) E_c",
}


def unread_names() -> set[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
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
