from __future__ import annotations

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
