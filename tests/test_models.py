from __future__ import annotations

import copy
import hashlib
import pickle
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import knowhow
from knowhow import (
    Atom,
    GenConfig,
    Model,
    ModelFormatError,
    find_plan,
    format_model,
    generate,
    holds,
    parse_formula,
    parse_model,
    verify_plan,
)

from helpers import mutated_model_text


class TestParseModel:
    def test_ex1_shape(self, ex1):
        assert len(ex1.states) == 8
        assert ex1.states == tuple(f"s{i}" for i in range(1, 9))
        assert ex1.actions == ("r", "u")
        assert ex1.labelled("p") == {"s2", "s3"}
        assert ex1.labelled("q") == {"s4", "s7", "s8"}

    def test_minimal_model(self):
        m = parse_model("state s []\n")
        assert m.states == ("s",)
        assert m.actions == ()
        assert m.valuation["s"] == frozenset()

    def test_ex2_left_shape(self, ex2_left):
        assert len(ex2_left.states) == 4
        assert ex2_left.actions == ("a", "b")
        assert ex2_left.labelled("p") == {"s1"}
        assert ex2_left.labelled("q") == {"s4"}

    def test_comments_and_blanks_ignored(self):
        m = parse_model("# hi\n\nstate s [p]  # trailing\n")
        assert m.valuation["s"] == {"p"}

    def test_implicit_action_declaration_order(self):
        m = parse_model("state x []\nstate y []\ntrans x b y\ntrans x a y\n")
        assert m.actions == ("b", "a")

    def test_explicit_actions_keep_declared_order(self):
        m = parse_model("state x []\naction a\ntrans x b x\n")
        assert m.actions == ("a", "b")

    def test_duplicate_action_line_idempotent(self):
        m = parse_model("state x []\naction a\naction a\ntrans x a x\n")
        assert m.actions == ("a",)

    def test_duplicate_trans_idempotent(self):
        m = parse_model("state x []\ntrans x a x\ntrans x a x\n")
        assert m.transitions["a"] == {("x", "x")}

    def test_forward_state_reference(self):
        m = parse_model("state x []\ntrans x a y\nstate y []\n")
        assert m.transitions["a"] == {("x", "y")}

    def test_duplicate_state_error(self):
        with pytest.raises(ModelFormatError) as exc:
            parse_model("state s []\nstate s [p]\n")
        assert exc.value.line == 2

    def test_undeclared_state_error(self):
        with pytest.raises(ModelFormatError) as exc:
            parse_model("state s []\ntrans s a t\n")
        assert exc.value.line == 2
        assert "undeclared state 't'" in str(exc.value)

    def test_malformed_line_error(self):
        with pytest.raises(ModelFormatError) as exc:
            parse_model("state s\n")
        assert exc.value.line == 1
        with pytest.raises(ModelFormatError):
            parse_model("state s []\ntrans s a\n")
        with pytest.raises(ModelFormatError, match="unknown directive"):
            parse_model("states s []\n")
        with pytest.raises(ModelFormatError, match="malformed action line") as exc:
            parse_model("state s []\naction a b\n")
        assert exc.value.line == 2

    def test_empty_model_error(self):
        with pytest.raises(ModelFormatError, match="no states"):
            parse_model("# nothing\n")

    def test_bad_ids_and_letters(self):
        with pytest.raises(ModelFormatError):
            parse_model("state s-1 []\n")
        with pytest.raises(ModelFormatError, match="bad proposition letter"):
            parse_model("state s [Kh]\n")
        with pytest.raises(ModelFormatError, match="bad proposition letter"):
            parse_model("state s [P]\n")


    def test_trans_line_regex_space_is_str_space(self):
        # A well-formed trans line is one regex match, so regex \s must be
        # the whitespace that str.split and str.strip use for other lines.
        space = re.compile(r"\s")
        assert [c for c in map(chr, range(sys.maxunicode + 1)) if bool(space.match(c)) != c.isspace()] == []

    def test_golden_corpus(self):
        """24,000 seeded mutated model texts give the pinned outcomes:
        ``format_model`` of the parsed model, or the error's line and
        message.  The digest was computed while ``parse_model`` still built
        its model through ``Model(...)``; each parsed model must still equal
        the one ``Model(...)`` builds from its views."""
        rng = random.Random(25)
        digest = hashlib.sha256()
        parsed = 0
        for _ in range(24_000):
            text = mutated_model_text(rng)
            try:
                model = parse_model(text)
            except ModelFormatError as error:
                outcome = f"{error.line}: {error}"
            else:
                outcome = format_model(model)
                assert model == Model(model.states, model.actions, model.transitions, model.valuation), text
                parsed += 1
            digest.update(outcome.encode() + b"\0")
        assert parsed == 9_061
        assert digest.hexdigest() == "d3fb81bfaff95f015298a8c5b3e2257095620b44673dbef75deb0929b1404543"


class TestModelValidation:
    def test_needs_states(self):
        with pytest.raises(ValueError):
            Model((), (), {}, {})

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Model(("s", "s"), (), {}, {})
        with pytest.raises(ValueError):
            Model(("s",), ("a", "a"), {}, {})

    def test_names_that_do_not_compare(self):
        # Two names with one hash whose == raises are named, and so is the
        # whole tuple if the comparison raised only once.
        class N:
            def __init__(self, label, raises=1_000):
                self.label, self.raises = label, raises

            def __hash__(self):
                return 0

            def __eq__(self, other):
                self.raises -= 1
                if self.raises < 0:
                    return self is other
                raise TypeError("no compare")

            def __repr__(self):
                return self.label

        with pytest.raises(ValueError, match=r"\Astate ids x and y do not compare\Z"):
            Model((N("x"), N("y")), (), {}, {})
        with pytest.raises(ValueError, match=r"\Aaction names a and b do not compare\Z"):
            Model(("s",), ("c", N("a"), N("b")), {}, {})
        with pytest.raises(ValueError, match=r"\Astate ids that do not compare among \(x, y\)\Z"):
            Model((N("x", raises=1), N("y", raises=1)), (), {}, {})

    def test_undeclared_endpoints(self):
        with pytest.raises(ValueError):
            Model(("s",), ("a",), {"a": {("s", "t")}}, {})
        with pytest.raises(ValueError):
            Model(("s",), (), {"a": set()}, {})
        with pytest.raises(ValueError):
            Model(("s",), (), {}, {"t": {"p"}})

    # A string or a list of length 2 is not a pair either: only a tuple is.
    @pytest.mark.parametrize("edge", [("s",), ("s", "s", "s"), 5, "ss", ["s", "s"]])
    def test_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(ValueError) as exc:
            Model(("s",), ("a",), {"a": [("s", "s"), edge]}, {})
        assert str(exc.value) == (
            f"action 'a' has an edge that is not a (source, target) pair: {edge!r}"
        )

    # Values that are not text ids still end in a ValueError naming the
    # state: an unhashable endpoint is never a declared state, undeclared
    # endpoints that do not compare are ordered by repr, and a letter
    # must be hashable.
    @pytest.mark.parametrize(
        "transitions, valuation, message",
        [
            ({"a": [(["s"], "s")]}, {}, "transition references undeclared state ['s']"),
            ({"a": [(1, "t")]}, {}, "transition references undeclared state 't'"),
            ({}, {"s": [["p"]]}, "valuation of state 's' is not a collection of hashable letters: [['p']]"),
            ({"a": 5}, {}, "action 'a' has edges that are not a collection: 5"),
            ({"a": None}, {}, "action 'a' has edges that are not a collection: None"),
        ],
    )
    def test_values_that_are_not_ids(self, transitions, valuation, message):
        with pytest.raises(ValueError) as exc:
            Model(("s",), ("a",), transitions, valuation)
        assert str(exc.value) == message

    def test_errors_name_the_state_under_any_hash_seed(self):
        # The undeclared endpoint and the unknown state are the least one
        # (by repr when the names do not compare), the edge named as not a
        # pair has the least repr, and the unknown action is the first in
        # plan order, whatever order a set iterates in.  An unhashable name
        # is never declared; the constructor names the first unhashable id.
        script = (
            "from knowhow import Model, find_plan, holds, parse_formula, verify_plan\n"
            "for args in [(('s', 's'), (), {}, {}), (('s', 't', 's'), (), {}, {}),\n"
            "             (('s',), ('a',), {'a': {('s', 't'), ('s', 'u'), ('x', 's')}}, {}),\n"
            "             (('s',), ('a',), {'a': {('s', 's'), ('t',), 5, ('s',)}}, {}),\n"
            "             (('s',), ('a',), {'a': {('s', 1), ('s', 't'), ('s', ('u',))}}, {}),\n"
            "             (('s',), ('a', 'b', 'a'), {}, {}), ((['s'],), (), {}, {}),\n"
            "             (('s',), (['a'],), {}, {}), (('s', ['u'], ['t']), (), {}, {})]:\n"
            "    try:\n"
            "        Model(*args)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "m = Model(('s', 't'), ('a', 'b'), {'a': [('s', 't')]}, {'s': ['p']})\n"
            "p = parse_formula('p')\n"
            "for call in [lambda: m.index('x'), lambda: m.index(['s']),\n"
            "             lambda: m.canonical({'s', 'zz', 'aa', 'qq'}),\n"
            "             lambda: m.canonical({'x', 1, ('y',)}), lambda: m.canonical([['s'], 'zz']),\n"
            "             lambda: m.successors('s', 'z'), lambda: m.successors('s', ['a']),\n"
            "             lambda: m.successors('x', 'a'), lambda: m.successors(['s'], 'a'),\n"
            "             lambda: holds(m, 'x', p), lambda: holds(m, ['s'], p),\n"
            "             lambda: find_plan(m, {'zz', 'aa', 's'}, ['t']),\n"
            "             lambda: find_plan(m, [], [['s'], 'x', 1]),\n"
            "             lambda: verify_plan(m, {'x', 1}, [], []),\n"
            "             lambda: verify_plan(m, [], [['t']], []),\n"
            "             lambda: verify_plan(m, [], [], ['a', 'z', 'y']),\n"
            "             lambda: verify_plan(m, [], [], ['b', ['a'], 'z'])]:\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(knowhow.__file__).resolve().parents[1])
        outputs = set()
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed)}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {
            "duplicate state id 's'\n"
            "duplicate state id 's'\n"
            "transition references undeclared state 't'\n"
            "action 'a' has an edge that is not a (source, target) pair: ('s',)\n"
            "transition references undeclared state 't'\n"
            "duplicate action name 'a'\n"
            "unhashable state id ['s']\n"
            "unhashable action name ['a']\n"
            "unhashable state id ['u']\n"
            "unknown state 'x'\n"
            "unknown state ['s']\n"
            "unknown state 'aa'\n"
            "unknown state 'x'\n"
            "unknown state 'zz'\n"
            "unknown action 'z'\n"
            "unknown action ['a']\n"
            "unknown state 'x'\n"
            "unknown state ['s']\n"
            "unknown state 'x'\n"
            "unknown state ['s']\n"
            "start set mentions unknown state 'aa'\n"
            "goal set mentions unknown state 'x'\n"
            "start set mentions unknown state 'x'\n"
            "goal set mentions unknown state ['t']\n"
            "unknown action 'z'\n"
            "unknown action ['a']\n"
        }

    def test_views_equal_the_input(self):
        # transitions, successors and valuation are computed from the masks;
        # they must give back exactly the edge and letter sets the
        # constructor read, also where an action's successor masks sit more
        # than a byte into each state's column.
        rng = random.Random(11)
        for _ in range(200):
            states = tuple(f"s{i}" for i in range(rng.randint(1, 24)))
            actions = tuple("abc"[: rng.randint(0, 3)])
            transitions = {
                a: [(rng.choice(states), rng.choice(states)) for _ in range(rng.randint(0, 3 * len(states)))]
                for a in actions
            }
            valuation = {
                s: [rng.choice("pqr") for _ in range(rng.randint(0, 4))]
                for s in states
                if rng.getrandbits(1)
            }
            model = Model(states, actions, transitions, valuation)
            assert model.transitions == {a: frozenset(transitions[a]) for a in actions}
            assert model.valuation == {s: frozenset(valuation.get(s, ())) for s in states}
            for a in actions:
                for s in states:
                    assert model.successors(s, a) == {t for u, t in transitions[a] if u == s}
            assert parse_model(format_model(model)) == model

    def test_repr_counts_edges(self, ex1, ex2_left, ex2_right):
        assert repr(ex1) == "<Model |S|=8 |A|=2 edges=7>"
        assert repr(ex2_left) == "<Model |S|=4 |A|=2 edges=3>"
        assert repr(ex2_right) == "<Model |S|=6 |A|=2 edges=4>"

    def test_immutable(self, ex1):
        with pytest.raises(AttributeError):
            ex1.states = ()

    def test_pickle_and_copy_rebuild_with_empty_memos(self, fixtures_dir):
        model = parse_model((fixtures_dir / "ex1.lts").read_text(encoding="utf-8"))
        assert verify_plan(model, frozenset(model.states[:3]), frozenset(model.states), ("r", "u"))
        assert model._set_masks and any(model._images.values())
        copies = [pickle.loads(pickle.dumps(model, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(model), copy.deepcopy(model)]
        for twin in copies:
            assert twin == model and twin is not model
            assert format_model(twin) == format_model(model)
            assert twin._set_masks == {} and twin._images == {a: {} for a in model.actions}
            assert verify_plan(twin, frozenset(model.states[:3]), frozenset(model.states), ("r", "u"))


# Values a Python caller may pass where a name is expected: declared names,
# other text, numbers, None, and hashable and unhashable containers of them.
_HASHABLE = st.one_of(
    st.sampled_from(["s", "t", "a", "b"]),
    st.text(max_size=2),
    st.integers(-1, 2),
    st.floats(),
    st.booleans(),
    st.none(),
    st.binary(max_size=1),
)
_ANY = st.recursive(
    _HASHABLE,
    lambda kids: st.one_of(
        st.lists(kids, max_size=2),
        st.tuples(kids, kids),
        st.sets(_HASHABLE, max_size=2),
        st.frozensets(_HASHABLE, max_size=2),
        st.dictionaries(_HASHABLE, kids, max_size=1),
    ),
    max_leaves=4,
)
_STATE = st.sampled_from(["s", "t"]) | _ANY
_ACTION = st.sampled_from(["a", "b"]) | _ANY


@st.composite
def _model_arguments(draw):
    """(states, actions, transitions, valuation) as a Python caller might
    pass them to ``Model``: mostly declared names, some arbitrary values."""
    states = st.lists(st.sampled_from(["s", "t"]), max_size=2, unique=True)
    actions = st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True)
    edges = st.lists(st.tuples(_STATE, _STATE) | _ANY, max_size=3) | _ANY
    letters = st.lists(st.sampled_from(["p", "q"]) | _ANY, max_size=2) | _ANY
    transitions = st.dictionaries(st.sampled_from(["a", "b"]), edges, max_size=2)
    valuation = st.dictionaries(st.sampled_from(["s", "t"]), letters, max_size=2)
    return (
        draw(states | st.lists(_STATE, max_size=2)),
        draw(actions | st.lists(_ACTION, max_size=2)),
        draw(transitions | st.dictionaries(_HASHABLE, edges, max_size=1)),
        draw(valuation | st.dictionaries(_HASHABLE, letters, max_size=1)),
    )


_STATES = st.lists(_STATE, max_size=3)
_WELL_FORMED = Model(("s", "t"), ("a", "b"), {"a": [("s", "t")], "b": [("t", "t")]}, {"s": ["p"]})


@given(
    _model_arguments(),
    _STATE,
    _ACTION,
    _STATES,
    _STATES,
    st.lists(_ACTION, max_size=3),
    st.sampled_from(["p", "q"]) | _ANY,
)
@settings(max_examples=300, deadline=None)
def test_any_name_ends_in_a_result_or_a_value_error(
    arguments, state, action, starts, goals, plan, letter
):
    # Every entry that takes a caller's names returns or raises ValueError,
    # for a well-formed model and for the model built from the arguments.
    models = [_WELL_FORMED]
    try:
        models.append(Model(*arguments))
    except ValueError:
        pass
    p = parse_formula("p")
    for model in models:
        for call in (
            lambda: model.index(state),
            lambda: model.canonical(starts),
            lambda: model.successors(state, action),
            lambda: model.labelled(letter),
            lambda: holds(model, state, p),
            lambda: find_plan(model, starts, goals),
            lambda: verify_plan(model, starts, goals, plan),
        ):
            try:
                call()
            except ValueError:
                pass


class TestQueries:
    def test_unknown_action(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown action 'z'$"):
            ex1.successors("s1", "z")
        with pytest.raises(ValueError, match=r"^unknown action 'z'$"):
            verify_plan(ex1, {"s1"}, {"s1"}, ("r", "z"))

    def test_successors_ex1(self, ex1):
        assert ex1.successors("s2", "r") == {"s3"}
        assert ex1.successors("s5", "u") == frozenset()

    def test_unknown_state(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown state 'nope'$"):
            ex1.successors("nope", "r")
        with pytest.raises(ValueError, match=r"^start set mentions unknown state 'nope'$"):
            verify_plan(ex1, {"nope", "s2"}, {"s2"}, ("r",))
        with pytest.raises(ValueError, match=r"^goal set mentions unknown state 'nope'$"):
            verify_plan(ex1, {"s2"}, {"nope"}, ("r",))

    def test_memoized_start_set_still_checks_the_goal_set(self, ex1):
        model = parse_model(format_model(ex1))  # a fresh model, with empty memos
        starts = frozenset({"s1", "s2"})
        verify_plan(model, starts, starts, ("r",))
        assert starts in model._set_masks
        with pytest.raises(ValueError, match=r"^goal set mentions unknown state 'nope'$"):
            verify_plan(model, starts, frozenset({"s2", "nope"}), ("r",))

    def test_unknown_state_in_a_frozenset_is_never_stored(self, ex1):
        model = parse_model(format_model(ex1))
        starts = frozenset({"s2", "zz", "nope"})
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^start set mentions unknown state 'nope'$"):
                verify_plan(model, starts, frozenset(), ())
            with pytest.raises(ValueError, match=r"^goal set mentions unknown state 'nope'$"):
                verify_plan(model, frozenset(), starts, ())
        assert model._set_masks == {frozenset(): 0}

    def test_unknown_action_with_memoized_sets(self, ex1):
        starts, goals = frozenset({"s1"}), frozenset({"s1", "s3"})
        verify_plan(ex1, starts, goals, ("r",))
        assert starts in ex1._set_masks and goals in ex1._set_masks
        for plan in (("r", "z"), ("z",), (["r"],)):
            with pytest.raises(ValueError, match=r"^unknown action "):
                verify_plan(ex1, starts, goals, plan)

    def test_canonical_names_least_unknown_state(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown state 'aa'$"):
            ex1.canonical(["s1", "zz", "aa", "qq"])

    def test_labelled_unknown_or_unhashable_letter(self):
        m = Model(("s",), (), {}, {"s": ["p"]})
        assert m.labelled("q") == frozenset()
        assert m.labelled(["p"]) == frozenset()

    def test_canonical_order(self, ex1):
        assert ex1.canonical(["s7", "s2", "s7", "s1"]) == ("s1", "s2", "s7")

    def test_index_unknown_state(self, ex1):
        with pytest.raises(ValueError, match="unknown state"):
            ex1.index("zz")


class TestFormat:
    def test_round_trip(self, ex1, ex2_left, ex2_right):
        for model in (ex1, ex2_left, ex2_right):
            assert parse_model(format_model(model)) == model
            assert model != format_model(model) and model.__eq__(None) is NotImplemented

    def test_round_trip_generated(self):
        cfg = GenConfig(max_states=5, max_actions=3, letters=("p", "q"), seed=5)
        for model in generate(cfg, 40):
            again = parse_model(format_model(model))
            assert again == model
            assert format_model(again) == format_model(model)

    def test_deterministic_text(self, ex2_left):
        text = format_model(ex2_left)
        assert text == (
            "state s1 [p]\n"
            "state s2 []\n"
            "state s3 []\n"
            "state s4 [q]\n"
            "action a\n"
            "action b\n"
            "trans s1 a s2\n"
            "trans s1 a s3\n"
            "trans s2 b s4\n"
        )

    def test_empty_relation_action_survives(self):
        m = parse_model("state x []\naction a\n")
        assert parse_model(format_model(m)) == m

    @pytest.mark.parametrize(
        "model, message",
        [
            (Model(("a b",), (), {}, {}), "bad state id 'a b'"),
            (Model(("s",), (), {}, {"s": {"Kh"}}), "bad proposition letter 'Kh'"),
            (Model(("s",), (), {}, {"s": {"P"}}), "bad proposition letter 'P'"),
            (Model(("s",), ("x y",), {}, {}), "bad action id 'x y'"),
            # Python callers can pass values that are not text at all.
            (Model((1,), (), {}, {}), "bad state id 1"),
            (Model(("s",), (), {}, {"s": {1}}), "bad proposition letter 1"),
            (Model(("s",), (2,), {}, {}), "bad action id 2"),
        ],
    )
    def test_unwritable_model_raises(self, model, message):
        with pytest.raises(ModelFormatError) as exc:
            format_model(model)
        assert exc.value.line is None
        assert str(exc.value) == message


LETTER_CANDIDATES = ["p", "p1", "pQ_2", "topx", "top", "bot", "Kh", "Khp", "U", "P", "1p", "p-q"]


class TestLetterRule:
    """Formulas, model files, generated models and format_model share
    one rule for what a proposition letter is."""

    @pytest.mark.parametrize("name", LETTER_CANDIDATES)
    def test_one_rule_everywhere(self, name):
        def accepts(build) -> bool:
            try:
                build()
            except ValueError:
                return False
            return True

        one_state = Model(("s",), (), {}, {"s": {name}})
        verdicts = {
            "Atom": accepts(lambda: Atom(name)),
            "parse_model": accepts(lambda: parse_model(f"state s [{name}]\n")),
            "GenConfig": accepts(lambda: GenConfig(max_states=1, max_actions=1, letters=(name,))),
            "format_model": accepts(lambda: format_model(one_state)),
        }
        expected = name in ("p", "p1", "pQ_2", "topx")
        assert verdicts == dict.fromkeys(verdicts, expected)
        if expected:
            assert parse_model(format_model(one_state)) == one_state
