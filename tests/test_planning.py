from __future__ import annotations

import hashlib
import random
import sys
import threading
from collections import Counter, deque
from itertools import combinations, islice, product

import pytest

import knowhow.planning as planning
from knowhow import (
    GenConfig,
    Model,
    PlanCheck,
    PlanResult,
    find_plan,
    format_model,
    generate,
    parse_model,
    verify_plan,
)

from helpers import plan_exists_bruteforce, plan_exists_pure, random_state_sets


class TestVerifyPlan:
    def test_ex1_good_plan(self, ex1):
        check = verify_plan(ex1, ex1.labelled("p"), ex1.labelled("q"), ("r", "u"))
        assert check.ok
        assert bool(check)
        assert check.describe() == "ok"

    def test_ex1_rr_fails_at_endpoint(self, ex1):
        check = verify_plan(ex1, ex1.labelled("p"), ex1.labelled("q"), ("r", "r"))
        assert not check.ok
        assert check.kind == "endpoint"
        assert check.state == "s5"
        assert check.start == "s3"

    def test_ex1_u_fails_at_endpoint(self, ex1):
        check = verify_plan(ex1, ex1.labelled("p"), ex1.labelled("q"), ("u",))
        assert not check.ok
        assert check.kind == "endpoint"
        assert check.state == "s6"

    def test_ex2_left_ab_stuck(self, ex2_left):
        check = verify_plan(ex2_left, {"s1"}, {"s4"}, ("a", "b"))
        assert not check.ok
        assert check.kind == "stuck"
        assert check.step == 1
        assert check.state == "s3"
        assert check.action == "b"
        assert "step 2 at state s3" in check.describe()

    def test_empty_plan_needs_starts_in_goals(self, ex1):
        assert verify_plan(ex1, {"s4"}, ex1.labelled("q"), ()).ok
        check = verify_plan(ex1, {"s1", "s4"}, ex1.labelled("q"), ())
        assert not check.ok and check.kind == "endpoint" and check.state == "s1"

    def test_empty_starts_always_ok(self, ex1):
        assert verify_plan(ex1, frozenset(), frozenset(), ("r", "r", "r")).ok

    def test_undeclared_action_raises(self, ex1):
        with pytest.raises(ValueError, match="unknown action"):
            verify_plan(ex1, {"s1"}, {"s2"}, ("z",))

    def test_unknown_state_raises(self, ex1):
        with pytest.raises(ValueError, match="unknown state"):
            verify_plan(ex1, {"nope"}, {"s2"}, ())

    def test_unknown_action_is_named(self, ex1):
        with pytest.raises(ValueError, match=r"^unknown action 'zz'$"):
            verify_plan(ex1, iter(["s1"]), iter(["s2"]), iter(["r", "zz", "u"]))
        with pytest.raises(ValueError, match=r"^unknown action 'zz'$"):
            verify_plan(ex1, frozenset(), frozenset(), ("zz",))

    def test_first_violation_scans_starts_in_declaration_order(self):
        # Both starts get stuck immediately; the declaration-first start wins.
        model = parse_model(
            "state a []\nstate b []\nstate c []\n"
            "action m\n"
            "trans c m c\n"
        )
        check = verify_plan(model, {"b", "a"}, {"c"}, ("m",))
        assert (check.start, check.step, check.state) == ("a", 0, "a")


class TestFindPlan:
    def test_ex1_witness(self, ex1):
        result = find_plan(ex1, ex1.labelled("p"), ex1.labelled("q"))
        assert result.decision
        assert result.witness == ("r", "u")

    def test_ex1_no_shorter_plan(self, ex1):
        starts, goals = ex1.labelled("p"), ex1.labelled("q")
        assert not verify_plan(ex1, starts, goals, ()).ok
        for action in ex1.actions:
            assert not verify_plan(ex1, starts, goals, (action,)).ok

    def test_ex2_right_no_plan(self, ex2_right):
        starts = ex2_right.labelled("p")
        goals = ex2_right.labelled("q")
        # No action can be taken from every start: each leaves one stuck.
        for edges in ex2_right.transitions.values():
            assert not starts <= {src for src, _ in edges}
        result = find_plan(ex2_right, starts, goals)
        assert not result.decision
        assert result.witness is None

    def test_empty_starts_epsilon(self, ex1):
        result = find_plan(ex1, frozenset(), frozenset())
        assert result.decision
        assert result.witness == ()
        assert result.explored == 1

    def test_witness_deterministic(self, ex1):
        first = find_plan(ex1, ex1.labelled("p"), ex1.labelled("q"))
        second = find_plan(ex1, ex1.labelled("p"), ex1.labelled("q"))
        assert first == second

    def test_tie_breaks_by_declaration_order(self):
        # Two one-step plans reach the goal; the first declared action wins.
        model = parse_model(
            "state x []\nstate g []\n"
            "action n\naction m\n"
            "trans x m g\ntrans x n g\n"
        )
        assert find_plan(model, {"x"}, {"g"}).witness == ("n",)


def _verify_with_empty_plan(model, starts, goals):
    return verify_plan(model, starts, goals, ())


@pytest.mark.parametrize("search", [find_plan, _verify_with_empty_plan])
class TestUnknownStates:
    """The error names the least unknown state, also when the states
    arrive as an iterator that can be read only once."""

    def test_start_set(self, ex1, search):
        for starts in (["s1", "zzz", "s2", "zz", "zz9"], iter(["zzz", "s1", "zz"])):
            with pytest.raises(ValueError, match=r"^start set mentions unknown state 'zz'$"):
                search(ex1, starts, ["s4"])

    def test_goal_set(self, ex1, search):
        goals = (state for state in ["s4", "yyy", "yy", "s7", "yz"])
        with pytest.raises(ValueError, match=r"^goal set mentions unknown state 'yy'$"):
            search(ex1, iter(["s2"]), goals)

    def test_start_set_is_checked_first(self, ex1, search):
        with pytest.raises(ValueError, match=r"^start set mentions unknown state 'zz'$"):
            search(ex1, iter(["zz"]), iter(["yy"]))

    def test_one_shot_iterators_of_known_states(self, ex1, search):
        starts, goals = ex1.labelled("q"), ex1.labelled("q")
        assert search(ex1, iter(starts), iter(goals)) == search(ex1, starts, goals)


# --- String-set references for find_plan and verify_plan -----------------------


def _successor_sets(model: Model) -> dict[str, dict[str, frozenset[str]]]:
    """Successor sets by action and source, read from the declared edges."""
    succ: dict[str, dict[str, frozenset[str]]] = {}
    for action in model.actions:
        by_src: dict[str, set[str]] = {}
        for src, dst in model.transitions[action]:
            by_src.setdefault(src, set()).add(dst)
        succ[action] = {src: frozenset(dsts) for src, dsts in by_src.items()}
    return succ


def reference_find_plan(model: Model, starts: frozenset, goals: frozenset):
    """Breadth-first search over frozensets of state names, expanding
    actions in declaration order; returns (decision, witness, explored)
    with ``explored`` the number of beliefs dequeued."""
    succ = _successor_sets(model)
    queue = deque([(starts, ())])
    seen = {starts}
    explored = 0
    while queue:
        belief, plan = queue.popleft()
        explored += 1
        if belief <= goals:
            return True, plan, explored
        for action in model.actions:
            if any(s not in succ[action] for s in belief):
                continue
            image = frozenset(t for s in belief for t in succ[action][s])
            if image not in seen:
                seen.add(image)
                queue.append((image, plan + (action,)))
    return False, None, explored


def reference_verify_plan(model: Model, starts: frozenset, goals: frozenset, plan) -> PlanCheck:
    """The per-start definition over sets of state names: the first
    violation by start, then step, then state, all in declaration order."""
    succ = _successor_sets(model)
    for start in (s for s in model.states if s in starts):
        reached = {start}
        for step, action in enumerate(plan):
            stuck = [s for s in model.states if s in reached and s not in succ[action]]
            if stuck:
                return PlanCheck(False, "stuck", start, step, action, stuck[0])
            reached = {t for s in reached for t in succ[action][s]}
        outside = [s for s in model.states if s in reached and s not in goals]
        if outside:
            return PlanCheck(False, "endpoint", start, None, None, outside[0])
    return PlanCheck(True)


def _random_model(rng: random.Random, sizes: tuple[int, int] = (1, 8)) -> Model:
    """1-8 states (or a count drawn from ``sizes``) and 1-3 actions.  Half
    the models give each edge a per-model density; the other half give
    each state one or two successors per action, or none with a per-model
    chance, so that beliefs rarely get stuck and searches run deeper."""
    states = tuple(f"s{i}" for i in range(1, rng.randint(*sizes) + 1))
    actions = ("a", "b", "c")[: rng.randint(1, 3)]
    transitions = {}
    if rng.getrandbits(1):
        density = rng.choice((0.15, 0.3, 0.5, 0.7))
        for a in actions:
            transitions[a] = {(src, dst) for src in states for dst in states if rng.random() < density}
    else:
        gap = rng.choice((0.0, 0.1, 0.3))
        for a in actions:
            transitions[a] = {
                (src, dst)
                for src in states
                if rng.random() >= gap
                for dst in rng.sample(states, rng.randint(1, min(2, len(states))))
            }
    return Model(states, actions, transitions, {})


def _random_case(rng: random.Random, case: int, sizes: tuple[int, int] = (1, 8)):
    """A model with a start set and a goal set.  Every tenth start set
    and every tenth goal set is empty; every other goal set is the belief
    reached from the starts by a random action sequence."""
    model = _random_model(rng, sizes)
    starts = frozenset(s for s in model.states if rng.getrandbits(1))
    if case % 10 == 0:
        starts = frozenset()
    if case % 10 == 5:
        goals = frozenset()
    elif case % 2:
        succ, goals = _successor_sets(model), starts
        for _ in range(rng.randint(1, 6)):
            action = rng.choice(model.actions)
            goals = frozenset(t for s in goals for t in succ[action].get(s, ()))
    else:
        goals = frozenset(s for s in model.states if rng.getrandbits(1))
    return model, starts, goals


class _CountingTable(list):
    """An image table that counts its group lookups."""

    lookups = 0

    def __getitem__(self, shift):
        self.lookups += 1
        return super().__getitem__(shift)


class TestImageTable:
    """find_plan reads a belief's images from a table of every set of up
    to four consecutive states; verify_plan never does."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_lookups_equal_the_or_of_the_members_columns(self, n):
        rng = random.Random(n)
        for _ in range(3):
            model = _random_model(rng, (n, n))
            table = _CountingTable(planning._image_table(model))
            for belief in range(1 << n):
                expected = 0
                for i, column in enumerate(model._columns):
                    if belief >> i & 1:
                        expected |= column
                table.lookups = 0
                assert planning._images(table, belief) == expected
                assert table.lookups <= belief.bit_count()

    def test_verify_plan_builds_no_table(self, monkeypatch):
        def refuse(model):
            raise AssertionError("an image table was built")

        monkeypatch.setattr(planning, "_image_table", refuse)
        rng = random.Random(9)
        for case in range(200):
            model, starts, goals = _random_case(rng, case)
            for plan in (p for n in range(3) for p in product(model.actions, repeat=n)):
                assert verify_plan(model, starts, goals, plan) == reference_verify_plan(model, starts, goals, plan)
        with pytest.raises(AssertionError, match="image table"):
            find_plan(model, model.states, ())

    def test_a_goal_root_is_the_one_belief_explored(self, ex1):
        assert find_plan(ex1, ex1.labelled("p"), ex1.labelled("p")) == PlanResult(True, (), 1)

    def test_one_action_cycle_of_1024_singletons(self):
        # Every belief is one state: one lookup each, and a 1,023-step witness.
        states = tuple(f"s{i}" for i in range(1024))
        model = Model(states, ("a",), {"a": set(zip(states, states[1:] + states[:1]))}, {})
        assert find_plan(model, {"s0"}, {"s1023"}) == PlanResult(True, ("a",) * 1023, 1024)
        assert find_plan(model, {"s1000"}, {"s3", "s999"}) == PlanResult(True, ("a",) * 27, 28)
        assert find_plan(model, {"s5"}, ()) == PlanResult(False, None, 1024)


def _every_two_state_two_action_model():
    """The 256 models on states s0, s1 and actions a, b: each action has
    each of the four possible edges or not."""
    states = ("s0", "s1")
    pairs = tuple(product(states, repeat=2))
    for edges in range(256):
        transitions = {
            action: {pair for k, pair in enumerate(pairs) if edges >> (4 * i + k) & 1}
            for i, action in enumerate(("a", "b"))
        }
        yield Model(states, ("a", "b"), transitions, {})


class TestSearchReport:
    """_search reports the first goal belief it dequeued, or None, the
    parent links of every belief it reached and how many it dequeued.  A
    failed search's beliefs are its certificate: the root, none inside the
    goal, and closed under every action a member can take."""

    @staticmethod
    def check(model, root, goal):
        found, parents, explored = planning._search(model, planning._image_table(model), root, goal)
        assert root in parents
        assert 1 <= explored <= len(parents)
        if found is not None:
            assert found in parents and not found & ~goal
            return
        assert explored == len(parents)
        full = (1 << len(model.states)) - 1
        for belief in parents:
            assert belief & ~goal
            images = 0
            for i, column in enumerate(model._columns):
                if belief >> i & 1:
                    images |= column
            for stuck, offset in model._moves.values():
                if not belief & stuck:
                    assert images >> offset & full in parents

    def test_every_two_state_two_action_model(self):
        for model in _every_two_state_two_action_model():
            for root, goal in product(range(4), repeat=2):
                self.check(model, root, goal)

    def test_random_models_of_four_to_eight_states(self):
        rng = random.Random(27)
        for _ in range(300):
            model = _random_model(rng, (4, 8))
            width = len(model.states)
            for _ in range(4):
                self.check(model, rng.getrandbits(width), rng.getrandbits(width))


class TestAgainstStringSetReference:
    CASES = 1000

    def test_find_plan_decision_witness_and_explored(self):
        rng = random.Random(2015)
        empty_starts = empty_goals = 0
        lengths = set()
        for case in range(self.CASES):
            model, starts, goals = _random_case(rng, case)
            result = find_plan(model, starts, goals)
            assert (result.decision, result.witness, result.explored) == reference_find_plan(
                model, starts, goals
            ), (case, model.transitions, starts, goals)
            empty_starts += not starts
            empty_goals += not goals
            lengths.add(None if result.witness is None else len(result.witness))
        assert empty_starts >= 100 and empty_goals >= 100
        assert {None, 0, 1, 2, 3, 4, 5} <= lengths, lengths

    def test_find_plan_above_eight_states(self):
        # 9-24 states: each state's column holds several actions' successor
        # masks, each wider than a byte, side by side in one int.
        rng = random.Random(2017)
        lengths = set()
        expanded = 0
        for case in range(300):
            model, starts, goals = _random_case(rng, case, (9, 24))
            result = find_plan(model, starts, goals)
            assert (result.decision, result.witness, result.explored) == reference_find_plan(
                model, starts, goals
            ), (case, model.transitions, starts, goals)
            lengths.add(None if result.witness is None else len(result.witness))
            expanded += len(model.actions) > 1 and result.explored > 1
        assert {None, 0, 1, 2, 3, 4, 5, 6} <= lengths and max(n or 0 for n in lengths) >= 10, lengths
        assert expanded >= 100

    def test_verify_plan_every_field(self):
        rng = random.Random(2016)
        kinds = {None: 0, "stuck": 0, "endpoint": 0}
        for case in range(self.CASES):
            model, starts, goals = _random_case(rng, case)
            plans = [tuple(rng.choice(model.actions) for _ in range(rng.randint(0, 5))) for _ in range(4)]
            witness = find_plan(model, starts, goals).witness
            if witness is not None:
                plans.append(witness)
            for plan in plans:
                check = verify_plan(model, starts, goals, plan)
                assert check == reference_verify_plan(model, starts, goals, plan), (
                    case, model.transitions, starts, goals, plan,
                )
                kinds[check.kind] += 1
        assert min(kinds.values()) >= 500, kinds


class TestAgainstBruteForce:
    def test_soundness_on_random_models(self):
        rng = random.Random(421)
        cfg = GenConfig(max_states=5, max_actions=3, letters=(), seed=421)
        for model in generate(cfg, 150):
            starts, goals = random_state_sets(model, rng)
            result = find_plan(model, starts, goals)
            if result.decision:
                assert verify_plan(model, starts, goals, result.witness).ok

    def test_completeness_at_desk_scale(self):
        # A light pass; the acceptance suite runs the full-scale comparison.
        rng = random.Random(1009)
        cfg = GenConfig(max_states=4, max_actions=2, letters=(), seed=1009)
        for model in generate(cfg, 40):
            starts, goals = random_state_sets(model, rng)
            bound = 2 ** len(model.states)
            assert find_plan(model, starts, goals).decision == plan_exists_bruteforce(
                model, starts, goals, bound
            )

    def test_cutoff_oracle_matches_pure_oracle(self):
        rng = random.Random(77)
        cfg = GenConfig(max_states=3, max_actions=2, letters=(), seed=77)
        for model in generate(cfg, 80):
            starts, goals = random_state_sets(model, rng)
            bound = 2 ** len(model.states)
            assert plan_exists_bruteforce(model, starts, goals, bound) == plan_exists_pure(
                model, starts, goals, bound
            )

    def test_composition(self):
        # A verified plan to a midpoint set composed with a verified plan
        # onward stays verified end to end.
        rng = random.Random(3)
        cfg = GenConfig(max_states=5, max_actions=2, letters=(), seed=3)
        composed = 0
        for model in generate(cfg, 300):
            edges = model.transitions
            starts = frozenset(s for s in model.states if rng.getrandbits(1))
            sigma = tuple(rng.choice(model.actions) for _ in range(rng.randrange(3)))
            everything = frozenset(model.states)
            if not verify_plan(model, starts, everything, sigma).ok:
                continue
            mid = starts
            for action in sigma:
                mid = frozenset(t for s, t in edges[action] if s in mid)
            eta = tuple(rng.choice(model.actions) for _ in range(rng.randrange(3)))
            if not verify_plan(model, mid, everything, eta).ok:
                continue
            goals = mid
            for action in eta:
                goals = frozenset(t for s, t in edges[action] if s in goals)
            assert verify_plan(model, starts, goals, sigma + eta).ok
            composed += 1
        assert composed >= 30  # the generator actually produced usable triples


class TestVerifyPlanPin:
    def test_golden_digest(self):
        """One sha256 over every ``verify_plan`` result of a fixed call
        list, type included, computed before the start and goal sets were
        memoized on the model.  The calls pass the same frozensets again
        and again, as the brute-force oracle does."""
        digest = hashlib.sha256()
        kinds = Counter()

        def check(model, starts, goals, plan):
            result = verify_plan(model, starts, goals, plan)
            digest.update(repr((model.canonical(starts), model.canonical(goals), plan)).encode())
            digest.update(repr((type(result).__module__, type(result).__qualname__, tuple(result))).encode())
            kinds[result.kind] += 1
            return result

        # Every start/goal pair and every plan up to length 4 on a sample
        # of the exhaustive 2-state/2-action stream.
        rng = random.Random(22)
        stream = list(generate(GenConfig(max_states=2, max_actions=2, letters=(), mode="exhaustive")))
        for model in rng.sample(stream, 48):
            plans = [p for n in range(5) for p in product(model.actions, repeat=n)]
            for starts, goals in product(_subsets(model), repeat=2):
                for plan in plans:
                    check(model, starts, goals, plan)
        # The brute-force oracle's call sequence on seeded 3-state cases.
        cfg = GenConfig(max_states=3, max_actions=2, letters=(), seed=22)
        models = (m for m in generate(cfg, 10_000) if len(m.states) == 3)
        for model in islice(models, 200):
            starts, goals = random_state_sets(model, rng)
            for length in range(2 ** len(model.states) + 1):
                seen = set()
                for plan in product(model.actions, repeat=length):
                    seen.add(check(model, starts, goals, plan).kind)
                    if None in seen:
                        break
                if None in seen or "endpoint" not in seen:
                    break
        # Plans up to length 6 on 9-24 state models.
        for _ in range(4):
            model = _random_model(rng, (9, 24))
            plans = [p for n in range(7) for p in product(model.actions, repeat=n)]
            for _ in range(2):
                starts, goals = random_state_sets(model, rng)
                for plan in plans:
                    check(model, starts, goals, plan)
        assert kinds == {None: 8948, "endpoint": 28305, "stuck": 32067}
        assert digest.hexdigest() == "477c29c96f555754dc0630d6b66bc7bf45fc6c4d0d874ac387bd28d45e503d85"


# --- verify_plan's image memo on the model -----------------------------------


def _fresh(model: Model) -> Model:
    return Model(model.states, model.actions, model.transitions, model.valuation)


def _memo_models() -> list[Model]:
    """Seeded generated models with exactly 3 and exactly 4 states."""
    models = []
    for size, seed in ((3, 12), (4, 13)):
        cfg = GenConfig(max_states=size, max_actions=2, letters=("p", "q"), seed=seed)
        models += [m for m in generate(cfg, 40) if len(m.states) == size][:5]
    assert len(models) == 10
    return models


class TestImageMemo:
    """``verify_plan`` memoizes action images on the model.  The memo
    must never change an answer, must stay within ``2^|S|`` entries per
    action, must be invisible from outside, and must never be read by the
    search; four threads sharing a model, searching or verifying, must
    get the serial answers."""

    def test_warm_memo_gives_the_same_answers(self):
        rng = random.Random(12)
        for model in _memo_models():
            plans = [p for n in range(5) for p in product(model.actions, repeat=n)]
            pairs = [random_state_sets(model, rng) for _ in range(4)]
            pairs.append((frozenset(model.states), frozenset(model.states)))
            calls = [(starts, goals, plan) for starts, goals in pairs for plan in plans]
            for order in (calls, calls[::-1]):
                for starts, goals, plan in order:
                    check = verify_plan(model, starts, goals, plan)
                    assert check == reference_verify_plan(model, starts, goals, plan)
                    assert check == verify_plan(_fresh(model), starts, goals, plan)
            sizes = [len(memo) for memo in model._images.values()]
            assert 0 < max(sizes) and all(size <= 2 ** len(model.states) for size in sizes)

    def test_search_never_reads_the_memo(self):
        for model in _memo_models():
            poisoned = _fresh(model)
            everything = (1 << len(model.states)) - 1
            for memo in poisoned._images.values():
                for mask in range(everything + 1):
                    memo[mask] = -1 if mask % 3 == 0 else everything ^ mask
            subsets = [
                frozenset(s for i, s in enumerate(model.states) if mask >> i & 1)
                for mask in range(everything + 1)
            ]
            misread = 0
            for starts, goals in product(subsets, repeat=2):
                found = find_plan(poisoned, starts, goals)
                expected = find_plan(model, starts, goals)
                assert (found.decision, found.witness, found.explored) == (
                    expected.decision, expected.witness, expected.explored,
                )
                for action in model.actions:
                    misread += verify_plan(poisoned, starts, goals, (action,)) != verify_plan(
                        model, starts, goals, (action,)
                    )
            assert misread  # the poison sits where verify_plan reads

    def test_memo_is_invisible(self):
        rng = random.Random(15)
        for model in _memo_models():
            used = _fresh(model)
            for _ in range(50):
                starts, goals = random_state_sets(used, rng)
                plan = tuple(rng.choice(used.actions) for _ in range(rng.randint(0, 4)))
                verify_plan(used, starts, goals, plan)
            assert any(used._images.values())
            fresh = _fresh(model)
            assert used == fresh and hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)
            assert used.transitions == fresh.transitions
            assert used.valuation == fresh.valuation
            assert format_model(used) == format_model(fresh)

    def test_threads_sharing_a_model(self):
        rng = random.Random(16)
        cases = []
        for model in _memo_models():
            plans = [p for n in range(5) for p in product(model.actions, repeat=n)]
            for _ in range(3):
                starts, goals = random_state_sets(model, rng)
                cases += [(model, starts, goals, plan) for plan in plans]
        # The serial answers come from fresh copies, so the threads start
        # on models whose memos are empty.
        expected = [verify_plan(_fresh(model), starts, goals, plan) for model, starts, goals, plan in cases]
        assert all(out == expected for out in _in_four_threads(verify_plan, cases))

    def test_threads_searching_a_model(self):
        rng = random.Random(18)
        models = _memo_models() + [_random_model(rng, (9, 24)) for _ in range(10)]
        cases = [(model, *random_state_sets(model, rng)) for model in models for _ in range(20)]
        expected = [find_plan(_fresh(model), starts, goals) for model, starts, goals in cases]
        assert all(out == expected for out in _in_four_threads(find_plan, cases))


class _Names(frozenset):
    """A frozenset subclass: equal to the frozenset of its states, but not one."""


def _subsets(model: Model) -> list[frozenset]:
    """Every set of ``model``'s states, each a new frozenset."""
    return [frozenset(c) for n in range(len(model.states) + 1) for c in combinations(model.states, n)]


class TestSetMemo:
    """``verify_plan`` memoizes the mask of each start and goal set that
    is exactly a ``frozenset``.  The memo must never change an answer,
    must hold nothing else, must stay within ``2^|S|`` entries, must be
    invisible from outside and must never be read by the search."""

    def test_memo_is_invisible(self):
        rng = random.Random(19)
        for model in _memo_models():
            used = _fresh(model)
            for _ in range(50):
                starts, goals = random_state_sets(used, rng)
                plan = tuple(rng.choice(used.actions) for _ in range(rng.randint(0, 4)))
                verify_plan(used, starts, goals, plan)
            assert used._set_masks
            fresh = _fresh(model)
            assert not fresh._set_masks
            assert used == fresh and hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)
            assert used.transitions == fresh.transitions
            assert used.valuation == fresh.valuation
            assert format_model(used) == format_model(fresh)

    def test_search_never_reads_the_memo(self):
        for model in _memo_models():
            poisoned = _fresh(model)
            everything = (1 << len(model.states)) - 1
            subsets = _subsets(model)
            for names in subsets:
                poisoned._set_masks[names] = everything ^ model._mask(names)
            misread = 0
            for starts, goals in product(subsets, repeat=2):
                found = find_plan(poisoned, starts, goals)
                expected = find_plan(model, starts, goals)
                assert (found.decision, found.witness, found.explored) == (
                    expected.decision, expected.witness, expected.explored,
                )
                for action in model.actions:
                    misread += verify_plan(poisoned, starts, goals, (action,)) != verify_plan(
                        model, starts, goals, (action,)
                    )
            assert misread  # the poison sits where verify_plan reads

    def test_only_exact_frozensets_are_stored(self):
        rng = random.Random(20)
        for model in _memo_models():
            used = _fresh(model)
            plans = [p for n in range(4) for p in product(model.actions, repeat=n)]
            for _ in range(4):
                starts, goals = random_state_sets(model, rng)
                for plan in plans:
                    expected = reference_verify_plan(model, starts, goals, plan)
                    for wrap in (list, set, tuple, lambda names: (s for s in names), iter, _Names):
                        assert verify_plan(used, wrap(starts), wrap(goals), plan) == expected
            assert not used._set_masks
            assert any(used._images.values())

    def test_memo_is_bounded_by_the_subsets(self):
        for model in _memo_models():
            used = _fresh(model)
            for _ in range(3):  # new but equal frozensets each round
                subsets = _subsets(model)
                for starts, goals in product(subsets, repeat=2):
                    verify_plan(used, starts, goals, model.actions[:1])
            assert len(used._set_masks) == 2 ** len(model.states)
            assert all(mask == model._mask(names) for names, mask in used._set_masks.items())

    def test_consecutive_exhaustive_models_keep_their_own_memo(self):
        cfg = GenConfig(max_states=2, max_actions=2, letters=("p", "q"), mode="exhaustive")
        models = list(generate(cfg, 16 * 40))
        everything = frozenset(models[0].states)
        for model, following in zip(models, models[1:]):
            assert following._set_masks is not model._set_masks
            verify_plan(model, everything, everything, model.actions[:1])
            assert model._set_masks == {everything: (1 << len(model.states)) - 1}
            assert not following._set_masks

    def test_threads_sharing_a_model(self):
        rng = random.Random(21)
        cases = []
        for model in _memo_models():
            plans = [p for n in range(4) for p in product(model.actions, repeat=n)]
            subsets = _subsets(model)
            for _ in range(3):
                starts, goals = rng.choice(subsets), rng.choice(subsets)
                cases += [(model, starts, goals, plan) for plan in plans]
        # Fresh copies give the serial answers, so the threads start on
        # models whose memos are empty and race to fill them.
        expected = [verify_plan(_fresh(model), starts, goals, plan) for model, starts, goals, plan in cases]
        assert all(out == expected for out in _in_four_threads(verify_plan, cases))
        assert all(mask == model._mask(names) for model, *_ in cases for names, mask in model._set_masks.items())


def _in_four_threads(call, cases: list[tuple]) -> list[list]:
    """Each of four threads, released together, applies ``call`` to every
    case in order, switching threads as often as the interpreter allows."""
    results: list[list] = [[] for _ in range(4)]
    barrier = threading.Barrier(4)

    def worker(out: list) -> None:
        barrier.wait()
        out.extend(call(*case) for case in cases)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_plan_result_records_exploration():
    model = parse_model("state x []\nstate y []\naction a\ntrans x a x\n")
    result = find_plan(model, {"x"}, {"y"})
    assert not result.decision
    assert result.explored >= 1
