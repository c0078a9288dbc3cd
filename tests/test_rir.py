"""Tests for the relational IR: evaluation, oracle, printing."""

from __future__ import annotations

import random

import pytest

from _oracle import OracleEnv, oracle_eval_pathset
from _treegen import (
    Env, TreeGen, bounded_language, fsa_from_paths, is_empty, make_env,
)
from rela.automata import (
    SymbolTable, accepts, apply_image, enumerate_shortest, fsa_equivalent,
    minimize,
)
from rela.rir import (
    Compose, Concat, Cross, Difference, Equal, Evaluator, Identity, Image,
    Intersect, One, PostState, PreState, Star, SymSet, Union, Zero, pretty,
)


def eval_pathset(p, env, ground_cache=None):
    """Evaluate one expression with a fresh `Evaluator`."""
    return Evaluator(env.pre, env.post, env.others, ground_cache).pathset(p)


def sym(s):
    """The one-element location class {s}."""
    return SymSet(frozenset([s]))


def small_world():
    t = SymbolTable()
    a, b, c = t.location("a"), t.location("b"), t.location("c")
    u = t.universe()
    pre = frozenset({(a,), (a, b)})
    post = frozenset({(a,), (b, c)})
    env = Env(fsa_from_paths(pre), fsa_from_paths(post), u, t.others)
    oenv = OracleEnv(pre, post, tuple(sorted(u)))
    return t, (a, b, c), env, oenv


def paths_of(fsa, limit=50):
    return set(enumerate_shortest(fsa, limit).render())


# ---------------------------------------------------------------------------
# eval_pathset


def test_leaves():
    t, (a, b, c), env, _ = small_world()
    assert paths_of(eval_pathset(sym(a), env)) == {"a"}
    assert paths_of(eval_pathset(One(), env)) == {""}
    assert is_empty(eval_pathset(Zero(), env))
    assert paths_of(eval_pathset(PreState(), env)) == {"a", "a b"}
    assert paths_of(eval_pathset(PostState(), env)) == {"a", "b c"}


def test_symbol_class_leaf():
    t, (a, b, c), env, oenv = small_world()
    expr = SymSet(frozenset({a, c}))
    assert paths_of(eval_pathset(expr, env)) == {"a", "c"}
    assert oracle_eval_pathset(expr, oenv, 2) == {(a,), (c,)}
    # one leaf, same language as the union of its members
    assert paths_of(eval_pathset(Union(sym(a), sym(c)), env)) == \
        paths_of(eval_pathset(expr, env))


def test_union_concat_star():
    t, (a, b, c), env, _ = small_world()
    m = eval_pathset(Union(sym(a), Concat(sym(b), sym(c))), env)
    assert paths_of(m) == {"a", "b c"}
    s = eval_pathset(Star(sym(a)), env)
    assert accepts(s, ()) and accepts(s, (a, a, a))
    assert not accepts(s, (b,))


def universe_star(env):
    """The star of every universe symbol: the paths a complement, as
    the difference from it, is taken against."""
    return Star(SymSet(env.universe))


def test_intersect_with_complement_of_one():
    # a* with the empty path removed: the non-empty runs of a.
    t, (a, b, c), env, _ = small_world()
    m = eval_pathset(
        Intersect(Star(sym(a)), Difference(universe_star(env), One())), env)
    got = enumerate_shortest(m, 3)
    assert got.render() == ["a", "a a", "a a a"]
    assert got.truncated


def test_image_of_cross():
    # Image(PreState, D x P): pre holds a D-path, so the image is all of P.
    t, (a, b, c), env, _ = small_world()
    d = sym(a)
    p = Union(sym(b), sym(c))
    img = eval_pathset(Image(PreState(), Cross(d, p)), env)
    assert paths_of(img) == {"b", "c"}
    # No pre-path lies in the domain: empty image.
    img2 = eval_pathset(Image(PreState(), Cross(sym(c), p)), env)
    assert is_empty(img2)


def test_image_of_identity_filters():
    t, (a, b, c), env, _ = small_world()
    img = eval_pathset(Image(PreState(), Identity(sym(a))), env)
    assert paths_of(img) == {"a"}


def test_compose_and_relstar():
    t, (a, b, c), env, _ = small_world()
    swap = Compose(Cross(sym(a), sym(b)), Cross(sym(b), sym(c)))
    img = eval_pathset(Image(sym(a), swap), env)
    assert paths_of(img) == {"c"}
    stretch = Star(Cross(sym(a), sym(b)))
    img2 = eval_pathset(Image(Concat(sym(a), sym(a)), stretch), env)
    assert paths_of(img2) == {"b b"}


def test_relconcat_pairs_componentwise():
    t, (a, b, c), env, _ = small_world()
    r = Concat(Cross(sym(a), sym(b)), Identity(sym(c)))
    img = eval_pathset(Image(Concat(sym(a), sym(c)), r), env)
    assert paths_of(img) == {"b c"}


def test_complement_excludes_markers_from_universe():
    t, (a, b, c), env, _ = small_world()
    mk = t.fresh_marker()
    # universe* minus 0 is the full universe closure; marker strings are
    # not in it.
    full = eval_pathset(Difference(universe_star(env), Zero()), env)
    assert accepts(full, (a, b))
    assert not accepts(full, (mk,))


def test_difference_keeps_what_only_the_left_side_holds():
    # The difference walks the left operand's arcs, so a path over a
    # symbol the right side never reads (a marker, say) stays in it.
    t, (a, b, c), env, _ = small_world()
    mk = t.fresh_marker()
    left = Union(Concat(sym(a), SymSet(frozenset([mk]))), Concat(sym(a),
                                                                 sym(b)))
    got = eval_pathset(Difference(left, Star(SymSet(frozenset([a, b])))),
                       env)
    assert paths_of(got) == {"a #1"}


# ---------------------------------------------------------------------------
# Memoization


def test_ground_cache_shared_across_envs():
    t, (a, b, c), env, oenv = small_world()
    cache: dict = {}
    expr = Star(Union(sym(a), sym(b)))
    first = eval_pathset(expr, env, cache)
    pre2 = fsa_from_paths(frozenset({(c,)}))
    env2 = Env(pre2, pre2, env.universe, env.others)
    second = eval_pathset(expr, env2, cache)
    assert first is second


def test_ground_pathset_union_is_a_minimal_dfa():
    # Not an epsilon-joined copy of both operands: an else chain's masks
    # would then hold a copy of every earlier zone.
    t, (a, b, c), env, _ = small_world()
    anything = Star(SymSet(frozenset([a, b, c])))
    zone = Union(Concat(sym(a), anything),
                 Union(Concat(sym(b), anything), Concat(sym(a), sym(c))))
    got = eval_pathset(zone, env)
    assert got.deterministic
    assert got.num_states == minimize(got).num_states == 2
    assert fsa_equivalent(got, eval_pathset(
        Concat(SymSet(frozenset([a, b])), anything), env))


@pytest.mark.parametrize("shape", ["identity-first", "one-first"])
def test_ground_relation_union_keeps_its_image(shape):
    # A relation is recognised by any Identity, Cross or Compose on its
    # Union/Concat/Star spine, not by its leftmost leaf, which may be One.
    # The `relation` flag each node sets as it is built records that.
    t, (a, b, c), env, _ = small_world()
    swap = Cross(sym(b), sym(c))
    if shape == "identity-first":
        rel = Union(Identity(sym(a)), swap)
        source, want = Union(sym(a), sym(b)), {"a", "c"}
    else:
        rel = Union(One(), Concat(Identity(sym(a)), swap))
        source, want = Union(One(), Concat(sym(a), sym(b))), {"", "a c"}
    ev = Evaluator(env.pre, env.post, env.others)
    assert paths_of(apply_image(ev.pathset(source), ev.pathset(rel))) == want
    assert paths_of(ev.pathset(Image(source, rel))) == want


def test_relation_flag_follows_the_spine():
    t = SymbolTable()
    a, b = sym(t.location("a")), sym(t.location("b"))
    for rel in [Identity(a), Cross(a, b), Compose(One(), Zero()),
                Union(One(), Concat(a, Star(Identity(b))))]:
        assert rel.relation
    for ps in [a, One(), Zero(), Union(One(), Concat(a, Star(b))),
               Difference(a, b), Intersect(a, b), Image(a, Identity(b)),
               PreState()]:
        assert not ps.relation
    # the renderer reads the same flag: a relation concatenation puts
    # no extra brackets round a union operand, as a path-set one does
    assert pretty(Union(One(), Concat(Identity(a), Union(a, b)))) == \
        "(1 | I(a) (a | b))"
    assert pretty(Union(One(), Concat(b, Union(a, b)))) == "(1 | b ((a | b)))"


def test_snapshot_expressions_not_ground():
    assert not PreState().ground
    assert not Union(sym(SymbolTable().location("x")), PostState()).ground
    assert Star(One()).ground
    assert not Image(One(), Cross(PreState(), One())).ground


def test_structurally_equal_subtrees_evaluate_once():
    t, (a, b, c), env, _ = small_world()
    ev = Evaluator(env.pre, env.post, env.others)
    e1 = Union(sym(a), sym(b))
    e2 = Union(sym(a), sym(b))
    assert ev.pathset(e1) is ev.pathset(e2)


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_simple_sets():
    t, (a, b, c), env, oenv = small_world()
    got = oracle_eval_pathset(Union(PreState(), sym(c)), oenv, 4)
    assert got == {(a,), (a, b), (c,)}


def test_oracle_complement_is_bounded_universe_difference():
    t, (a, b, c), env, oenv = small_world()
    got = oracle_eval_pathset(Difference(universe_star(env), PreState()),
                              oenv, 1)
    # All strings of length <= 1 except (a,): the empty path and the
    # three other singletons (universe includes drop).
    assert (a,) not in got
    assert () in got
    assert len(got) == 4


def test_oracle_image():
    t, (a, b, c), env, oenv = small_world()
    got = oracle_eval_pathset(
        Image(PreState(), Cross(sym(a), Union(sym(b), sym(c)))), oenv, 4)
    assert got == {(b,), (c,)}


def test_oracle_relstar_and_compose():
    t, (a, b, c), env, oenv = small_world()
    expr = Image(Star(sym(a)), Star(Cross(sym(a), sym(b))))
    got = oracle_eval_pathset(expr, oenv, 3)
    assert got == {(), (b,), (b, b), (b, b, b)}
    expr2 = Image(sym(a), Compose(Cross(sym(a), sym(b)),
                                  Cross(sym(b), sym(c))))
    assert oracle_eval_pathset(expr2, oenv, 3) == {(c,)}


def test_oracle_maxlen_guard():
    t, (a, b, c), env, oenv = small_world()
    with pytest.raises(ValueError):
        oracle_eval_pathset(One(), oenv, 9)


def test_randomized_oracle_agreement_small():
    # A slice of the big agreement run in the acceptance suite.
    rng = random.Random(20240811)
    for _ in range(150):
        table, symbols, env, oenv, env_ml = make_env(rng)
        gen = TreeGen(rng, symbols, env_ml, bound=6)
        expr = gen.tree(depth=4)
        want = oracle_eval_pathset(expr, oenv, 6)
        got = bounded_language(eval_pathset(expr, env), 6)
        assert got == want, f"disagreement on {pretty(expr)}"


# ---------------------------------------------------------------------------
# Rendering


def test_pretty_pathsets():
    t = SymbolTable()
    a, b = t.location("a"), t.location("b")
    assert pretty(Union(sym(a), Union(sym(b), One()))) == "(a | b | 1)"
    assert pretty(Concat(sym(a), Star(sym(b)))) == "a b*"
    assert pretty(Difference(Union(sym(a), sym(b)), sym(a))) == \
        "((a | b) ∖ a)"
    assert pretty(Image(PreState(), Identity(sym(a)))) == "(PreState ▷ I(a))"
    assert pretty(SymSet(frozenset({a, b}))) == "(a | b)"
    wide = SymSet(frozenset(t.location(f"r{i}") for i in range(9)))
    assert pretty(wide) == "[9 locations]"


def test_pretty_relations_and_specs():
    t = SymbolTable()
    a, b = t.location("a"), t.location("b")
    r = Union(Identity(sym(a)), Cross(sym(a), sym(b)))
    assert pretty(r) == "(I(a) | (a × b))"
    assert pretty(Concat(Identity(sym(a)), Star(Cross(sym(a), sym(b))))) \
        == "I(a) (a × b)*"
    s = Equal(PreState(), Image(PostState(), Identity(sym(a))))
    assert pretty(s) == "PreState = (PostState ▷ I(a))"
    assert pretty(Compose(One(), Zero())) == "(1 ∘ 0)"