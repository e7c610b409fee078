from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pickle
import types
from pathlib import Path

import pytest

import knowhow
from knowhow import cli, modelgen, models, planning, proofs, semantics, syntax

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


# --- Records and formula nodes as dataclasses ------------------------------

RECORDS = (
    planning.PlanResult,
    proofs.Taut,
    proofs.AxiomInst,
    proofs.MP,
    proofs.NecU,
    proofs.Sub,
    proofs.Hyp,
    proofs.ProofLine,
    proofs.Proof,
    proofs.ProofVerdict,
    proofs.ProofDocument,
    proofs.TheoremEntry,
    modelgen.GenConfig,
    modelgen.AuditViolation,
    modelgen.AuditReport,
)

# The methods that ``dataclass`` would write into a class, and the ones a
# record writes itself: AxiomInst copies its binding and hashes it as a set,
# and GenConfig validates its fields.
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
OWN_METHODS = {
    (proofs.AxiomInst, "__init__"),
    (proofs.AxiomInst, "__hash__"),
    (modelgen.GenConfig, "__init__"),
}

NODE_FIELDS = {
    syntax.Top: (),
    syntax.Bot: (),
    syntax.Atom: ("name",),
    syntax.Not: ("child",),
    syntax.And: ("left", "right"),
    syntax.Or: ("left", "right"),
    syntax.Implies: ("left", "right"),
    syntax.Iff: ("left", "right"),
    syntax.U: ("child",),
    syntax.Kh: ("cond", "goal"),
    syntax.KhPlus: ("cond", "goal"),
}


def _package_dataclasses() -> list[type]:
    modules = (syntax, models, planning, semantics, proofs, modelgen, cli)
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
    ]


def _twin(cls: type) -> type:
    """A stdlib frozen dataclass with the fields and defaults of ``cls``."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _sample(cls: type, tag: str = "") -> dict[str, object]:
    # A distinct hashable value per field, so a value bound to the wrong
    # field shows in the repr.
    return {f.name: (f.name, tag) for f in dataclasses.fields(cls)}


def test_no_dataclass_carries_a_generated_method():
    # On Python 3.11 ``dataclass`` compiles every method it writes at each
    # import, so the classes only list their fields and the methods live
    # in Formula and syntax._Record.
    classes = _package_dataclasses()
    assert set(classes) == set(RECORDS) | set(NODE_FIELDS)
    for cls in classes:
        for name in GENERATED:
            assert name not in vars(cls) or (cls, name) in OWN_METHODS, (cls, name)
    for cls, name in OWN_METHODS:
        assert name in vars(cls)


def test_no_class_carries_a_decorator():
    # A record or a formula node is declared by subclassing its base, which
    # makes it a dataclass; only syntax knows how.
    source = Path(knowhow.__file__).parent
    for path in source.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                assert not cls.decorator_list, f"{path.name}:{cls.lineno}"
    assert not hasattr(syntax, "_record")


def test_subclassing_record_declares_a_frozen_dataclass():
    # No Formula subclass is declared here: the package has exactly 11.
    class Pair(syntax._Record):
        """Two numbers, the second 0 unless given."""

        first: int
        second: int = 0

    twin = _twin(Pair)
    assert [(f.name, f.default) for f in dataclasses.fields(Pair)] == [("first", dataclasses.MISSING), ("second", 0)]
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(twin)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(Pair)
    ]
    assert Pair.__match_args__ == twin.__match_args__ == ("first", "second")
    assert inspect.signature(Pair) == inspect.signature(twin)
    assert not set(GENERATED) & set(vars(Pair))

    calls = [
        ((1,), {}, (1, 0)),
        ((1, 2), {}, (1, 2)),
        ((), {"first": 1}, (1, 0)),
        ((), {"second": 2, "first": 1}, (1, 2)),
        ((1,), {"second": 2}, (1, 2)),
    ]
    for args, kwargs, values in calls:
        pair, expected = Pair(*args, **kwargs), twin(*args, **kwargs)
        assert dataclasses.astuple(pair) == dataclasses.astuple(expected) == values
        assert repr(pair) == repr(expected).replace("Pair(", f"{Pair.__qualname__}(")
        assert pair == Pair(*args, **kwargs) and hash(pair) == hash(expected)
        changed = dataclasses.replace(pair, second=5)
        assert dataclasses.astuple(changed) == dataclasses.astuple(dataclasses.replace(expected, second=5)) == (1, 5)
        for name in ("first", "second", "other"):
            for record in (pair, expected):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 3)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)

    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3}), ((), {"second": 2})]:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)


def test_records_and_nodes_describe_themselves():
    # Without a docstring, dataclass builds one from the signature.
    for cls in (*RECORDS, *NODE_FIELDS):
        doc = vars(cls).get("__doc__")
        assert doc and not doc.startswith(cls.__name__ + "("), cls
    for cls in RECORDS:
        for f in dataclasses.fields(cls):
            # _Record binds plain defaults only.
            assert f.init and not f.kw_only and f.default_factory is dataclasses.MISSING, (cls, f.name)


def test_formula_nodes_list_their_fields_in_order_and_are_frozen():
    p = syntax.Atom("p")
    for cls, names in NODE_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert cls.__match_args__ == names
        node = cls(*[p] * len(names)) if cls is not syntax.Atom else p
        assert tuple(getattr(node, name) for name in names) == (("p",) if cls is syntax.Atom else (p,) * len(names))
        for name in (*names, "kids", "height", "_normal", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, p)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in (proofs.AxiomInst, modelgen.GenConfig)], ids=repr)
def test_record_matches_a_frozen_dataclass(cls):
    twin = _twin(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    assert [f.name for f in dataclasses.fields(twin)] == names
    assert [f.default for f in fields] == [f.default for f in dataclasses.fields(twin)]
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    assert inspect.signature(cls) == inspect.signature(twin)

    values = _sample(cls)
    required = {f.name: values[f.name] for f in fields if f.default is dataclasses.MISSING}
    calls = [
        ((*values.values(),), {}),
        ((), dict(reversed(values.items()))),
        ((), dict(reversed(required.items()))),
    ]
    for args, kwargs in calls:
        record, expected = cls(*args, **kwargs), twin(*args, **kwargs)
        assert repr(record) == repr(expected)
        assert dataclasses.asdict(record) == dataclasses.asdict(expected)
        assert hash(record) == hash(expected)
        assert record == cls(*args, **kwargs) and not record != cls(*args, **kwargs)
        assert record != expected and expected != record
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record and repr(copied) == repr(record)

    record, expected = cls(**values), twin(**values)
    if names:
        other = _sample(cls, "other")
        assert cls(**other) != record
        changed = {names[-1]: other[names[-1]]}
        assert repr(dataclasses.replace(record, **changed)) == repr(dataclasses.replace(expected, **changed))
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)

    bad_calls = [((*values.values(), "extra"), {}), ((), {**values, "extra": 1})]
    if required:
        bad_calls.append(((), dict(list(required.items())[1:])))
    if names:
        bad_calls.append(((values[names[0]],), {names[0]: values[names[0]]}))
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_records_of_two_classes_differ():
    assert proofs.NecU(1) != proofs.Hyp(1)
    assert proofs.Taut() == proofs.Taut() and hash(proofs.Taut()) == hash(())


def test_axiom_instance_copies_its_binding():
    p = syntax.parse_formula("p")
    binding = types.MappingProxyType({"p": p})
    inst = proofs.AxiomInst("TU", binding)
    assert type(inst.binding) is dict and inst.binding == {"p": p}
    assert inst == proofs.AxiomInst(binding={"p": p}, name="TU")
    assert hash(inst) == hash(("TU", frozenset({"p": p}.items())))
    assert repr(inst) == "AxiomInst(name='TU', binding={'p': parse_formula('p')})"
    assert copy.deepcopy(inst) == inst == pickle.loads(pickle.dumps(inst))
    assert dataclasses.replace(inst, name="4KU") == proofs.AxiomInst("4KU", {"p": p})
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.binding = {}
    with pytest.raises(TypeError):
        proofs.AxiomInst("TU")
    inst.binding["p"] = inst  # a record inside itself prints as ...
    assert repr(inst) == "AxiomInst(name='TU', binding={'p': ...})"


def test_gen_config_binds_keywords_to_their_fields():
    GenConfig = modelgen.GenConfig
    cfg = GenConfig(mode="exhaustive", seed=5, letters=["q", "p"], max_actions=2, max_states=3)
    assert (cfg.max_states, cfg.max_actions, cfg.letters, cfg.seed, cfg.mode) == (3, 2, ("q", "p"), 5, "exhaustive")
    assert cfg == GenConfig(3, 2, ("q", "p"), 5, "exhaustive")
    assert hash(cfg) == hash((3, 2, ("q", "p"), 5, "exhaustive"))
    assert repr(GenConfig(max_actions=2, max_states=3)) == (
        "GenConfig(max_states=3, max_actions=2, letters=(), seed=0, mode='random')"
    )
    assert str(inspect.signature(GenConfig)) == (
        "(max_states: 'int', max_actions: 'int', letters: 'tuple[str, ...]' = (), "
        "seed: 'int' = 0, mode: 'str' = 'random') -> None"
    )
    assert dataclasses.replace(cfg, seed=6).seed == 6
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, max_states=5)
    for args, kwargs in [((3,), {}), ((3, 2), {"max_states": 3}), ((3, 2), {"states": 3})]:
        with pytest.raises(TypeError):
            GenConfig(*args, **kwargs)
