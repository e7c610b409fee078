from __future__ import annotations

import ast
from pathlib import Path

import knowhow
from knowhow import modelgen, models, planning, proofs, semantics, syntax

# Every name the package exported before it re-exported each module's
# ``__all__``, less the retired ``children`` (use ``phi.kids``); none may be
# lost.
EXPORTED = """
    AXIOM_SCHEMAS And Atom AuditReport AuditViolation AxiomInst Bot Formula
    FormulaSyntaxError GenConfig Hyp Iff Implies Kh KhPlus MP Model
    ModelFormatError NecU Not Or Plan PlanCheck PlanResult Proof ProofDocument
    ProofFormatError ProofLine ProofVerdict Sub Taut TautologyBudgetError
    TheoremEntry Top U __version__ atom_names check_U check_proof
    check_proof_under exhaustive_size ext find_countermodel find_plan
    format_model formula_height generate holds instantiate_axiom is_tautology
    normalize parse_formula parse_model parse_proof print_formula
    soundness_audit substitute substitute_all theorem_db verify_plan
""".split()


def test_all_is_each_module_all():
    names = knowhow.__all__
    assert len(names) == len(set(names))
    assert len(EXPORTED) == 60
    assert set(EXPORTED) <= set(names)
    modules = (syntax, models, planning, semantics, proofs, modelgen)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert {"MAX_NESTING_DEPTH", "Justification"} <= set(names)


def test_star_import_binds_every_name():
    namespace: dict[str, object] = {}
    exec("from knowhow import *", namespace)
    for name in knowhow.__all__:
        assert namespace[name] is getattr(knowhow, name)


def test_unchecked_constructor_only_in_models_and_modelgen():
    # ``Model._of_masks`` skips every check, so no other module may build a
    # model through it.
    source = Path(knowhow.__file__).parent
    users = sorted(path.name for path in source.glob("*.py") if "_of_masks" in path.read_text(encoding="utf-8"))
    assert users == ["modelgen.py", "models.py"]


def test_only_models_writes_a_models_slots():
    # After construction only verify_plan's two memo dicts change, so no
    # other module may write a Model's slots: elsewhere ``object.__setattr__``
    # is only called on ``self``, in a method of a class that is not a Model.
    source = Path(knowhow.__file__).parent
    for path in source.glob("*.py"):
        if path.name == "models.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [
            call.func
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and not any("Model" in ast.unparse(base) for base in cls.bases)
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for call in ast.walk(method)
            if isinstance(call, ast.Call) and call.args and ast.unparse(call.args[0]) == "self"
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__":
                assert any(node is func for func in allowed), f"{path.name}:{node.lineno}"


def test_verify_plan_shares_no_search_code():
    # verify_plan is find_plan's independent oracle.  It and its helper
    # name none of the search's functions, and the search never reads
    # verify_plan's two memos.  ``_images`` is both a search function (a
    # name) and a memo slot (an attribute), so the two rules look at
    # different nodes.
    tree = ast.parse(Path(planning.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    search = {"_image_table", "_images", "_search", "_witness"}
    memos = {"_images", "_set_masks"}

    def names(function):
        return {node.id for node in ast.walk(functions[function]) if isinstance(node, ast.Name)}

    def attributes(function):
        return {node.attr for node in ast.walk(functions[function]) if isinstance(node, ast.Attribute)}

    assert memos <= attributes("verify_plan")
    for function in ("verify_plan", "_image"):
        assert not names(function) & search, function
    for function in ("find_plan", *sorted(search)):
        assert not attributes(function) & memos, function


def test_no_function_calls_itself():
    # Every walk over formulas, models and proofs runs on explicit stacks,
    # so that the 10,000-level nesting limit never meets the recursion
    # limit.  ``super().__init__`` in an ``__init__`` calls another function.
    source = Path(knowhow.__file__).parent
    for path in source.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(function):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                if isinstance(callee, ast.Name):
                    assert callee.id != function.name, f"{path.name}:{call.lineno}"
                elif isinstance(callee, ast.Attribute) and ast.unparse(callee.value) != "super()":
                    assert callee.attr != function.name, f"{path.name}:{call.lineno}"


def test_formula_nodes_use_formulas_own_methods():
    # A dataclass-generated __repr__, or a field-wise __reduce__, recurses
    # once per level of nesting.
    nodes = syntax.Formula.__subclasses__()
    assert len(nodes) == 11
    for node in nodes:
        for name in ("__repr__", "__reduce__", "__copy__", "__deepcopy__"):
            assert getattr(node, name) is getattr(syntax.Formula, name), (node, name)
