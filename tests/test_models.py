from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import knowhow
from knowhow import Atom, GenConfig, Model, ModelFormatError, format_model, generate, parse_model

from helpers import random_state_sets


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


class TestModelValidation:
    def test_needs_states(self):
        with pytest.raises(ValueError):
            Model((), (), {}, {})

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Model(("s", "s"), (), {}, {})
        with pytest.raises(ValueError):
            Model(("s",), ("a", "a"), {}, {})

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
        ],
    )
    def test_values_that_are_not_ids(self, transitions, valuation, message):
        with pytest.raises(ValueError) as exc:
            Model(("s",), ("a",), transitions, valuation)
        assert str(exc.value) == message

    def test_errors_name_the_state_under_any_hash_seed(self):
        # The undeclared endpoint is the least one, and the edge named as
        # not a pair has the least repr, whatever order the edge set
        # iterates in.
        script = (
            "from knowhow import Model\n"
            "for args in [(('s', 's'), (), {}, {}), (('s', 't', 's'), (), {}, {}),\n"
            "             (('s',), ('a',), {'a': {('s', 't'), ('s', 'u'), ('x', 's')}}, {}),\n"
            "             (('s',), ('a',), {'a': {('s', 's'), ('t',), 5, ('s',)}}, {})]:\n"
            "    try:\n"
            "        Model(*args)\n"
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
        }

    def test_views_equal_the_input(self):
        # transitions and valuation are computed from the masks; they must
        # give back exactly the edge and letter sets the constructor read.
        rng = random.Random(11)
        for _ in range(200):
            states = tuple(f"s{i}" for i in range(rng.randint(1, 6)))
            actions = tuple("abc"[: rng.randint(0, 3)])
            transitions = {
                a: [(rng.choice(states), rng.choice(states)) for _ in range(rng.randint(0, 12))]
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

    def test_repr_counts_edges(self, ex1, ex2_left, ex2_right):
        assert repr(ex1) == "<Model |S|=8 |A|=2 edges=7>"
        assert repr(ex2_left) == "<Model |S|=4 |A|=2 edges=3>"
        assert repr(ex2_right) == "<Model |S|=6 |A|=2 edges=4>"

    def test_immutable(self, ex1):
        with pytest.raises(AttributeError):
            ex1.states = ()


class TestQueries:
    def test_post_image_ex1(self, ex1):
        assert ex1.post_image({"s2", "s3"}, "r") == {"s3", "s4"}

    def test_post_image_empty(self, ex1):
        assert ex1.post_image(frozenset(), "r") == frozenset()

    def test_post_image_ex2_left(self, ex2_left):
        assert ex2_left.post_image({"s1"}, "a") == {"s2", "s3"}

    def test_applicable_ex2_left(self, ex2_left):
        assert not ex2_left.applicable({"s2", "s3"}, "b")

    def test_applicable_vacuous(self, ex1):
        assert ex1.applicable(frozenset(), "r")

    def test_applicable_ex1(self, ex1):
        assert ex1.applicable({"s2", "s3"}, "u")

    def test_unknown_action(self, ex1):
        with pytest.raises(ValueError, match="unknown action"):
            ex1.post_image({"s1"}, "z")
        with pytest.raises(ValueError, match="unknown action"):
            ex1.applicable({"s1"}, "z")

    def test_successors_ex1(self, ex1):
        assert ex1.successors("s2", "r") == {"s3"}
        assert ex1.successors("s5", "u") == frozenset()

    def test_unknown_state(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown state 'nope'$"):
            ex1.successors("nope", "r")
        with pytest.raises(ValueError, match=r"^unknown state 'nope'$"):
            ex1.post_image({"nope", "s2"}, "r")
        with pytest.raises(ValueError, match=r"^unknown state 'nope'$"):
            ex1.applicable({"nope"}, "r")

    def test_canonical_names_least_unknown_state(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown state 'aa'$"):
            ex1.canonical(["s1", "zz", "aa", "qq"])

    def test_canonical_order(self, ex1):
        assert ex1.canonical(["s7", "s2", "s7", "s1"]) == ("s1", "s2", "s7")

    def test_index_unknown_state(self, ex1):
        with pytest.raises(ValueError, match="unknown state"):
            ex1.index("zz")


class TestProperties:
    def test_post_image_monotone_and_applicable_conjunctive(self):
        rng = random.Random(31)
        cfg = GenConfig(max_states=5, max_actions=2, letters=("p",), seed=31)
        for model in generate(cfg, 60):
            smaller, bigger = random_state_sets(model, rng)
            union = smaller | bigger
            for action in model.actions:
                assert model.post_image(smaller, action) <= model.post_image(union, action)
                assert model.applicable(union, action) == (
                    model.applicable(smaller, action) and model.applicable(bigger, action)
                )
                if model.applicable(model.states, action):
                    assert model.post_image(model.states, action)

    def test_applicable_nonempty_post(self):
        rng = random.Random(77)
        cfg = GenConfig(max_states=4, max_actions=2, letters=(), seed=77)
        for model in generate(cfg, 60):
            sets = random_state_sets(model, rng)
            for group in sets:
                for action in model.actions:
                    if group and model.applicable(group, action):
                        assert model.post_image(group, action)


class TestFormat:
    def test_round_trip(self, ex1, ex2_left, ex2_right):
        for model in (ex1, ex2_left, ex2_right):
            assert parse_model(format_model(model)) == model

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
