"""The path-space partial action, the coefficient algebra, the skew
product, and the generator-image verification.

The library's action works on atom keys.  The model of points it
replaced, with a representative infinite path or sink-pair per atom, is
kept here as an oracle for it.  So are β read off every atom of its
output depth, against the library's β pushed forward from the support,
and the comparison that refines both sides to a fixed depth, against
SkewElement ==."""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass
from typing import Optional, Union

import pytest

from conftest import (
    FINITE_CORPUS,
    is_sink,
    load,
    random_path,
    random_presentation,
    shift_path,
)
from ultragrade import partial_action
from ultragrade.algebra import AlgebraElement, f_degree
from ultragrade.errors import CertificateError, NotInDomain, NotInIdeal
from ultragrade.freegroup import FreeWord
from ultragrade.model import (
    CycleTail,
    Edge,
    EdgeInst,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
)
from ultragrade.partial_action import (
    DElement,
    SkewElement,
    _atom_sort_key,
    _GeneratorImages,
    _path_space,
    _prefix,
    _word_depth,
    beta,
    in_word,
    indicator_vertex_set,
    indicator_word,
    phi_image,
    phi_of_element,
    theta,
    verify_generator_relations,
)


def w(*letters):
    return FreeWord([(EdgeInst(n), s) for n, s in letters])


def atoms(pres: UltragraphPresentation, depth: int) -> list[tuple]:
    """The canonical partition of X at a refinement depth m >= 1, as a
    fresh list: one cylinder per length-m path, one singleton per shorter
    sink-pair, one singleton per isolated sink."""
    return list(_path_space(pres).atoms(depth))


def check_supports(elt: SkewElement) -> bool:
    """Every component f_t lies in its ideal D_t."""
    return all(f.supported_in(t) for t, f in elt.comps.items())


# -- the point model, as an oracle ---------------------------------------------


@dataclass(frozen=True)
class Infinite:
    rep: InfinitePathRep


@dataclass(frozen=True)
class SinkPath:
    alpha: tuple[EdgeInst, ...]  # nonempty
    v: VertexRef


@dataclass(frozen=True)
class SinkVertex:
    v: VertexRef


PathPoint = Union[Infinite, SinkPath, SinkVertex]


def point_length(x: PathPoint) -> Optional[int]:
    """None encodes infinite length."""
    if isinstance(x, Infinite):
        return None
    if isinstance(x, SinkPath):
        return len(x.alpha)
    return 0


def point_prefix(x: PathPoint, k: int) -> Optional[tuple[EdgeInst, ...]]:
    """First k edges, or None when |x| < k."""
    if k == 0:
        return ()
    if isinstance(x, Infinite):
        return tuple(x.rep.unroll(k))
    if isinstance(x, SinkPath) and len(x.alpha) >= k:
        return x.alpha[:k]
    return None


def point_source(pres: UltragraphPresentation, x: PathPoint) -> VertexRef:
    if isinstance(x, Infinite):
        return pres.edge_source(x.rep.unroll(1)[0])
    if isinstance(x, SinkPath):
        return pres.edge_source(x.alpha[0])
    return x.v


def point_in_word_at(pres: UltragraphPresentation, x: PathPoint, t: FreeWord) -> bool:
    if t.is_identity():
        return True
    split = t.positive_negative_split()
    if split is None:
        return False
    a, b = split
    if a and not pres.is_path(a):
        return False
    if b and not pres.is_path(b):
        return False
    if a and not b:
        return point_prefix(x, len(a)) == a
    if b and not a:
        return pres.edge_range(b[-1]).member(point_source(pres, x))
    meet = pres.edge_range(a[-1]).intersection(pres.edge_range(b[-1]))
    if meet.is_empty():
        return False
    if isinstance(x, SinkPath) and x.alpha == a:
        return meet.member(x.v)
    nxt = point_prefix(x, len(a) + 1)
    return nxt is not None and nxt[: len(a)] == a and meet.member(pres.edge_source(nxt[-1]))


def strip_point(x: PathPoint, b: tuple[EdgeInst, ...]) -> PathPoint:
    if not b:
        return x
    if isinstance(x, Infinite):
        rep = x.rep
        for _ in b:
            rep = shift_path(rep)
        return Infinite(rep)
    if not (isinstance(x, SinkPath) and x.alpha[: len(b)] == b):
        raise ValueError("the point does not begin with the path to strip")
    rest = x.alpha[len(b):]
    return SinkPath(rest, x.v) if rest else SinkVertex(x.v)


def prepend_point(x: PathPoint, a: tuple[EdgeInst, ...]) -> PathPoint:
    if not a:
        return x
    if isinstance(x, Infinite):
        return Infinite(InfinitePathRep(a + x.rep.prefix, x.rep.tail))
    if isinstance(x, SinkPath):
        return SinkPath(a + x.alpha, x.v)
    return SinkPath(a, x.v)


def theta_point(pres: UltragraphPresentation, t: FreeWord, x: PathPoint) -> PathPoint:
    if t.is_identity():
        return x
    if not point_in_word_at(pres, x, t.inverse()):
        raise NotInDomain(f"point outside the domain of theta_{t.label()}")
    a, b = t.positive_negative_split()
    return prepend_point(strip_point(x, b), a)


_POINTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def representative(pres: UltragraphPresentation, key: tuple) -> PathPoint:
    """The point of an atom that follows the least edge from each range,
    read from the library's cached out-edges and ranges; computed once per
    key and path space."""
    space = _path_space(pres)
    points = _POINTS.setdefault(space, {})
    x = points.get(key)
    if x is None:
        x = points[key] = _representative(space, key)
    return x


def _representative(space, key: tuple) -> PathPoint:
    if key[0] == "sv":
        return SinkVertex(key[1])
    if key[0] == "sp":
        return SinkPath(key[1], key[2])
    alpha = key[1]
    ext: list[EdgeInst] = []
    seen: dict[EdgeInst, int] = {}
    rng = space.range[alpha[-1]]
    while True:
        candidates: list[EdgeInst] = []
        sink: Optional[VertexRef] = None
        for u in sorted(rng.vertices()):
            out = space.out.get(u)
            if out:
                candidates.extend(out)
            else:
                sink = sink or u
        if not candidates:
            if sink is None:
                raise CertificateError("no edge and no sink continues the atom's path")
            return SinkPath(alpha + tuple(ext), sink)
        e = min(candidates, key=EdgeInst.sort_key)
        if e in seen:
            j = seen[e]
            return Infinite(InfinitePathRep(alpha + tuple(ext[:j]), CycleTail(tuple(ext[j:]))))
        seen[e] = len(ext)
        ext.append(e)
        rng = space.range[e]


def point_atom(x: PathPoint, depth: int) -> tuple:
    n = point_length(x)
    if n is None or n >= depth:
        return ("cyl", point_prefix(x, depth))
    if isinstance(x, SinkPath):
        return ("sp", x.alpha, x.v)
    return ("sv", x.v)


def oracle_indicator(pres, depth, member) -> DElement:
    return DElement(pres, depth, {k: 1 for k in atoms(pres, depth) if member(representative(pres, k))})


def oracle_indicator_word(pres: UltragraphPresentation, t: FreeWord) -> DElement:
    return oracle_indicator(pres, _word_depth(t), lambda x: point_in_word_at(pres, x, t))


def oracle_indicator_vertex_set(pres: UltragraphPresentation, vset: VertexSet) -> DElement:
    return oracle_indicator(pres, 1, lambda x: vset.member(point_source(pres, x)))


def oracle_supported_in(f: DElement, t: FreeWord) -> bool:
    refined = f.refine_to(max(f.depth, _word_depth(t)))
    return all(point_in_word_at(f.pres, representative(f.pres, k), t) for k in refined.values)


def oracle_beta(pres: UltragraphPresentation, t: FreeWord, f: DElement) -> DElement:
    if t.is_identity():
        return f
    tinv = t.inverse()
    if not oracle_supported_in(f, tinv):
        raise NotInIdeal(f"the function is not supported in X_{tinv.label()}")
    split = t.positive_negative_split()
    if split is None:
        if f.is_zero():
            return DElement.zero(pres)
        raise NotInIdeal(f"X_{tinv.label()} is empty")
    a, b = split
    depth = max(1, len(a) + 1, len(a) + f.depth - len(b))
    values = {}
    for key in atoms(pres, depth):
        x = representative(pres, key)
        if point_in_word_at(pres, x, t):
            values[key] = f.values.get(point_atom(theta_point(pres, tinv, x), f.depth), 0)
    return DElement(pres, depth, values)


# -- β by pullback and comparison at a fixed depth, as oracles ---------------


def _truncate(key: tuple, depth: int) -> tuple:
    """The atom of refinement depth `depth` that holds the points of `key`."""
    if key[0] == "sv" or (key[0] == "sp" and len(key[1]) < depth):
        return key
    return ("cyl", _prefix(key, depth))


def eval_point(f: DElement, key: tuple):
    """The value of f at the points of `key`, which must fix at least
    f.depth edges if it is a cylinder."""
    return f.values.get(_truncate(key, f.depth), 0)


def pullback_beta(pres: UltragraphPresentation, t: FreeWord, f: DElement) -> DElement:
    """β_t(f) = f ∘ θ_{t⁻¹}, evaluated on every atom of X_t at the output
    depth."""
    if t.is_identity():
        return f
    tinv = t.inverse()
    if not f.supported_in(tinv):
        raise NotInIdeal(f"the function is not supported in X_{tinv.label()}")
    split = t.positive_negative_split()
    if split is None:
        if f.is_zero():
            return DElement.zero(pres)
        raise NotInIdeal(f"X_{tinv.label()} is empty")
    a, b = split
    # at this depth θ_{t⁻¹} leaves every cylinder of X_t at least f.depth
    # edges: it strips |a| < depth of them and prepends |b|
    depth = max(1, len(a) + 1, len(a) + f.depth - len(b))
    inside, back = in_word(pres, t), theta(pres, tinv)
    values = {}
    for key in atoms(pres, depth):
        if inside(key):
            c = eval_point(f, back(key))
            if c != 0:
                values[key] = c
    return DElement(pres, depth, values)


def refined_eq(u: SkewElement, v: SkewElement, depth: int) -> bool:
    """u == v after every component of both is refined to `depth`."""
    ru = SkewElement(u.pres, {t: f.refine_to(depth) for t, f in u.comps.items()})
    rv = SkewElement(v.pres, {t: f.refine_to(depth) for t, f in v.comps.items()})
    return ru == rv


def valid_point(pres: UltragraphPresentation, x: PathPoint) -> bool:
    if isinstance(x, Infinite):
        return pres.valid_infinite_path(x.rep, depth=30)
    if isinstance(x, SinkPath):
        return (
            len(x.alpha) >= 1
            and pres.is_path(x.alpha)
            and is_sink(pres, x.v)
            and pres.edge_range(x.alpha[-1]).member(x.v)
        )
    return is_sink(pres, x.v)


# -- atom keys and the action --------------------------------------------------


def test_point_membership():
    pres = load("ef.ug")
    inf_ef = ("cyl", (EdgeInst("e"), EdgeInst("f")))  # e f f f ...
    assert in_word(pres, w(("e", 1)))(inf_ef)
    assert not in_word(pres, w(("f", 1)))(inf_ef)
    # x starts at v = r(e), so x lies in X_{e^-1}
    x = ("cyl", (EdgeInst("f"),))
    assert in_word(pres, w(("e", -1)))(x)
    assert in_word(pres, w(("f", -1)))(x)


def test_theta_prepend_and_strip():
    pres = load("ef.ug")
    x = ("cyl", (EdgeInst("f"),))
    moved = theta(pres, w(("e", 1)))(x)
    assert moved == ("cyl", (EdgeInst("e"), EdgeInst("f")))
    back = theta(pres, w(("e", -1)))(moved)
    assert in_word(pres, w(("f", 1)))(back)
    with pytest.raises(NotInDomain):
        theta(pres, w(("f", -1)))(moved)  # moved starts with e, not f


def test_theta_on_sink_points():
    pres = load("one_edge.ug")
    x = ("sp", (EdgeInst("e"),), VertexRef("v", 0))
    assert valid_point(pres, representative(pres, x))
    stripped = theta(pres, w(("e", -1)))(x)
    assert stripped == ("sv", VertexRef("v", 0))
    assert theta(pres, w(("e", 1)))(stripped) == x


def test_partial_action_composition_words_up_to_three():
    # theta_g . theta_h agrees with theta_{gh} wherever both sides act; at
    # depth 4 no cylinder fixes too few edges for three letters of action
    pres = load("two_range.ug")
    letters = [(n, s) for n in pres.edges for s in (1, -1)]
    words = [FreeWord([(EdgeInst(n), s)]) for n, s in letters]
    words += [a * b for a in words for b in words]
    keys = atoms(pres, 4)
    checked = 0
    for g, h in itertools.product(words, repeat=2):
        if len(g) + len(h) > 3:
            continue
        gh = g * h
        for x in keys:
            if not in_word(pres, h.inverse())(x):
                continue
            y = theta(pres, h)(x)
            if not in_word(pres, g.inverse())(y):
                continue
            assert in_word(pres, gh.inverse())(x)
            assert theta(pres, g)(y) == theta(pres, gh)(x)
            checked += 1
    assert checked > 50


@pytest.mark.dash_o
def test_truncating_a_too_shallow_cylinder_raises():
    # a raised error, not an assert, so it also holds under python -O
    pres = load("ef.ug")
    cyl = ("cyl", (EdgeInst("e"),))
    with pytest.raises(ValueError, match="does not fix 2 edges"):
        _truncate(cyl, 2)
    with pytest.raises(ValueError):
        eval_point(DElement(pres, 2, {}), cyl)
    sink_pair = ("sp", (EdgeInst("e"), EdgeInst("f")), VertexRef("v", 0))
    assert _truncate(sink_pair, 1) == ("cyl", (EdgeInst("e"),))
    assert _truncate(sink_pair, 3) == sink_pair


def _same(a: DElement, b: DElement) -> bool:
    return (a.depth, a.values) == (b.depth, b.values)


def _words(pres: UltragraphPresentation) -> list[FreeWord]:
    """The reduced words of length at most 2."""
    letters = [FreeWord([(e, s)]) for e in pres.all_edge_insts() for s in (1, -1)]
    words = [FreeWord.identity()] + letters + [g * h for g in letters for h in letters]
    return list(dict.fromkeys(words))


def _oracle_products(pres: UltragraphPresentation, pairs, monkeypatch) -> list[SkewElement]:
    """The products of generator images computed through the point oracle:
    the images' indicators, β and the support checks of skew_multiply."""
    with monkeypatch.context() as m:
        m.setattr(partial_action, "indicator_word", oracle_indicator_word)
        m.setattr(partial_action, "indicator_vertex_set", oracle_indicator_vertex_set)
        m.setattr(partial_action, "beta", oracle_beta)
        m.setattr(DElement, "supported_in", oracle_supported_in)
        gen = _GeneratorImages(pres)
        return [gen._of(*x) * gen._of(*y) for x, y in pairs]


@pytest.mark.dash_o
def test_key_action_matches_the_point_oracle(monkeypatch):
    rng = random.Random(1313)
    cases = [load(name) for name in FINITE_CORPUS]
    cases += [random_presentation(rng, max_vertices=4, max_edges=5) for _ in range(40)]
    for pres in cases:
        words = _words(pres)
        for t in words:
            assert _same(indicator_word(pres, t), oracle_indicator_word(pres, t)), t.label()
        vsets = [VertexSet.of(v) for v in pres.all_vertices()]
        vsets += [pres.edge_range(e) for e in pres.all_edge_insts()] + [pres.g0_universe()]
        for vs in vsets:
            assert _same(indicator_vertex_set(pres, vs), oracle_indicator_vertex_set(pres, vs))
        short = [t for t in words if len(t) <= 1]
        longer = [t for t in words if len(t) > 1]
        for depth in range(1, 5):
            f = DElement(pres, depth, {k: rng.choice([0, 1, 2, -1]) for k in atoms(pres, depth)})
            for t in words:
                assert f.supported_in(t) == oracle_supported_in(f, t), (depth, t.label())
            # β at depth 4 on a word of two positive letters refines to
            # depth 6, so the longer words are sampled
            for t in short + rng.sample(longer, min(4, len(longer))):
                g = f * indicator_word(pres, t.inverse())
                assert _same(beta(pres, t, g), oracle_beta(pres, t, g)), (depth, t.label())
        kinds = [("s", e) for e in pres.all_edge_insts()] + [("st", e) for e in pres.all_edge_insts()]
        kinds += [("p", vs) for vs in vsets]
        pairs = list(itertools.product(kinds, repeat=2))
        gen = _GeneratorImages(pres)
        for (x, y), want in zip(pairs, _oracle_products(pres, pairs, monkeypatch)):
            got = gen._of(*x) * gen._of(*y)
            assert got.comps.keys() == want.comps.keys(), (x, y)
            assert all(_same(got.comps[t], want.comps[t]) for t in got.comps), (x, y)


@pytest.mark.dash_o
def test_pushed_beta_matches_the_pullback_oracle():
    rng = random.Random(2718)
    cases = [load(name) for name in FINITE_CORPUS]
    cases += [random_presentation(rng, max_vertices=4, max_edges=5) for _ in range(40)]
    for pres in cases:
        words = _words(pres)
        short = [t for t in words if len(t) <= 1]
        longer = [t for t in words if len(t) > 1]
        for depth in range(1, 5):
            f = DElement(pres, depth, {k: rng.choice([0, 1, 2, -1]) for k in atoms(pres, depth)})
            # at depth 4 a word of two positive letters pulls back from the
            # atoms of depth 6, so the longer words are sampled there
            chosen = words if depth < 4 else short + rng.sample(longer, min(4, len(longer)))
            for t in chosen:
                if not f.supported_in(t.inverse()):
                    with pytest.raises(NotInIdeal):
                        beta(pres, t, f)
                g = f * indicator_word(pres, t.inverse())
                assert _same(beta(pres, t, g), pullback_beta(pres, t, g)), (depth, t.label())


@pytest.mark.dash_o
def test_beta_checks_each_key_without_the_support_test(monkeypatch):
    # θ's own domain check is a raised error, not an assert, so β rejects a
    # function outside X_{t⁻¹} even when the support test lets it through,
    # under python -O too
    rng = random.Random(1618)
    cases = [load(name) for name in FINITE_CORPUS]
    cases += [random_presentation(rng, max_vertices=4, max_edges=5) for _ in range(10)]
    checked = 0
    for pres in cases:
        one = DElement(pres, 1, {k: 1 for k in atoms(pres, 1)})
        outside = [
            t for t in _words(pres)
            if t.positive_negative_split() is not None and not one.supported_in(t.inverse())
        ]
        for t in outside:
            with pytest.raises(NotInIdeal):
                beta(pres, t, one)
        with monkeypatch.context() as m:
            m.setattr(DElement, "supported_in", lambda self, t: True)
            for t in outside:
                with pytest.raises(NotInDomain):
                    beta(pres, t, one)
                checked += 1
    assert checked > 100


# -- the coefficient algebra -------------------------------------------------


def test_atoms_partition_points():
    pres = load("one_edge.ug")
    keys = atoms(pres, 2)
    points = [representative(pres, k) for k in keys]
    assert all(valid_point(pres, p) for p in points)
    # one sink-pair per sink in r(e), plus the isolated-sink atoms
    assert ("sp", (EdgeInst("e"),), VertexRef("v", 0)) in keys
    assert ("sp", (EdgeInst("e"),), VertexRef("w", 0)) in keys
    assert ("sv", VertexRef("v", 0)) in keys


def test_indicators_multiply_pointwise():
    pres = load("ef.ug")
    one_e = indicator_word(pres, w(("e", 1)))
    one_v = indicator_vertex_set(pres, VertexSet.of(VertexRef("u", 0)))
    prod = one_e * one_v
    # X_e is exactly the set of points starting at u, so the product is 1_e
    assert prod == one_e
    assert (one_e - one_e).is_zero()


def test_beta_needs_support():
    pres = load("ef.ug")
    one_e = indicator_word(pres, w(("e", 1)))
    # points of X_e start at u, which is outside r(e) = {v}
    with pytest.raises(NotInIdeal):
        beta(pres, w(("e", 1)), one_e)


def test_beta_conjugates_indicators():
    pres = load("ef.ug")
    one_einv = indicator_word(pres, w(("e", -1)))
    pushed = beta(pres, w(("e", 1)), one_einv)
    assert pushed == indicator_word(pres, w(("e", 1)))


# -- the path-space cache against the uncached walk --------------------------


def _walk_children(pres, key):
    if key[0] != "cyl":
        return [key]
    alpha = key[1]
    out = []
    for u in pres.edge_range(alpha[-1]).vertices():
        if is_sink(pres, u):
            out.append(("sp", alpha, u))
        else:
            out.extend(("cyl", alpha + (e,)) for e in pres.out_edges(u))
    return out


def _walk_atoms(pres, depth):
    level = [("cyl", (EdgeInst(eid),)) for eid in sorted(pres.edges)]
    level += [("sv", v) for v in pres.all_vertices() if is_sink(pres, v)]
    for _ in range(depth - 1):
        nxt = []
        for key in level:
            if key[0] == "cyl" and len(key[1]) < depth:
                nxt.extend(_walk_children(pres, key))
            else:
                nxt.append(key)
        level = nxt
    return sorted(level, key=_atom_sort_key)


def _walk_point(pres, key):
    if key[0] == "sv":
        return SinkVertex(key[1])
    if key[0] == "sp":
        return SinkPath(key[1], key[2])
    alpha, ext, seen = key[1], [], {}
    rng = pres.edge_range(alpha[-1])
    while True:
        candidates, sink = [], None
        for u in sorted(rng.vertices()):
            if is_sink(pres, u):
                sink = sink or u
            else:
                candidates.extend(pres.out_edges(u))
        if not candidates:
            return SinkPath(alpha + tuple(ext), sink)
        e = sorted(candidates, key=EdgeInst.sort_key)[0]
        if e in seen:
            j = seen[e]
            return Infinite(InfinitePathRep(alpha + tuple(ext[:j]), CycleTail(tuple(ext[j:]))))
        seen[e] = len(ext)
        ext.append(e)
        rng = pres.edge_range(e)


def _walk_refine(pres, key, depth):
    out, stack = [], [key]
    while stack:
        k = stack.pop()
        if k[0] == "cyl" and len(k[1]) < depth:
            stack.extend(_walk_children(pres, k))
        else:
            out.append(k)
    return out


def test_path_space_cache_matches_the_uncached_walk():
    rng = random.Random(4242)
    cases = [load(name) for name in FINITE_CORPUS]
    cases += [random_presentation(rng, max_vertices=4, max_edges=5) for _ in range(40)]
    for pres in cases:
        for depth in range(1, 5):
            keys = atoms(pres, depth)
            assert keys == _walk_atoms(pres, depth), (pres.name, depth)
            for key in keys:
                assert representative(pres, key) == _walk_point(pres, key), key
                for finer in range(depth + 1, 5):
                    refined = DElement(pres, depth, {key: 1}).refine_to(finer)
                    assert list(refined.values) == _walk_refine(pres, key, finer), (key, finer)
        # atoms hands out a fresh list each time
        atoms(pres, 2).clear()
        assert atoms(pres, 2) == _walk_atoms(pres, 2)


def test_relations_ask_each_vertex_for_its_out_edges_once(monkeypatch):
    pres = load("two_range.ug")
    asked = []
    real = UltragraphPresentation.out_edges

    def spy(self, v):
        asked.append(v)
        return real(self, v)

    monkeypatch.setattr(UltragraphPresentation, "out_edges", spy)
    assert verify_generator_relations(pres, depth=3)["all_pass"]
    assert asked
    assert len(asked) == len(set(asked)) <= len(pres.all_vertices())


def test_validate_drops_the_cached_path_space():
    pres = load("one_edge.ug")
    before = atoms(pres, 2)
    v = VertexRef("v", 0)
    pres.edges["loop"] = Edge("loop", v, VertexSet.of(v))
    pres.validate()
    after = atoms(pres, 2)
    assert after != before
    assert after == _walk_atoms(pres, 2)
    assert ("cyl", (EdgeInst("loop"), EdgeInst("loop"))) in after
    assert not any(key == ("sv", v) for key in after)


# -- skew product and the generator images ----------------------------------


def test_skew_relation3_mirror():
    pres = load("ef.ug")
    se = phi_image(pres, "s", EdgeInst("e"))
    sf = phi_image(pres, "s", EdgeInst("f"))
    ste = phi_image(pres, "st", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    assert (ste * sf).is_zero()
    assert (stf * se).is_zero()
    assert ste * se == phi_image(pres, "p", pres.edges["e"].range)


def test_skew_product_with_shared_range_is_nonzero():
    # r(e) = r(f) = {v} here, so s_e s_f* is a genuine degree-(e f^-1)
    # element and its image cannot vanish
    pres = load("ef.ug")
    se = phi_image(pres, "s", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    prod = se * stf
    assert not prod.is_zero()
    assert prod.grading_tags() == [w(("e", 1), ("f", -1))]
    x = AlgebraElement.monomial(pres, (EdgeInst("e"),), pres.edges["e"].range, (EdgeInst("f"),))
    assert prod == phi_of_element(pres, x)


def test_skew_product_disjoint_ranges_is_zero():
    pres = load("two_cycle.ug")  # r(e) = {v}, r(f) = {u}
    se = phi_image(pres, "s", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    assert (se * stf).is_zero()


def test_phi_respects_components():
    pres = load("ef.ug")
    for elt in (
        phi_image(pres, "s", EdgeInst("e")) * phi_image(pres, "st", EdgeInst("e")),
        phi_image(pres, "p", pres.g0_universe()),
    ):
        assert elt.grading_tags() == [FreeWord.identity()]
        assert check_supports(elt)
        # both define __eq__ and not __hash__, so neither is hashable
        for unhashable in (elt, elt.comps[FreeWord.identity()]):
            with pytest.raises(TypeError):
                hash(unhashable)


def test_generator_relations_pass_on_corpus():
    for name in FINITE_CORPUS:
        report = verify_generator_relations(load(name), depth=3)
        assert report["all_pass"], (name, report["failures"])


def _sabotage_inverse(p, kind, payload):
    if kind == "st":
        # wrong inverse: reuse the positive generator image
        return phi_image(p, "s", payload)
    return phi_image(p, kind, payload)


def _sabotage_projections(p, kind, payload):
    if kind == "p" and not payload.is_empty():
        return phi_image(p, "p", p.g0_universe())
    return phi_image(p, kind, payload)


def test_sabotaged_images_are_caught():
    pres = load("ef.ug")
    report = verify_generator_relations(pres, depth=3, image=_sabotage_inverse)
    assert not report["all_pass"]
    assert report["failures"]
    report2 = verify_generator_relations(pres, depth=3, image=_sabotage_projections)
    assert not report2["all_pass"]


@pytest.mark.dash_o
def test_relation_1_checks_each_distinct_set_once():
    # in ef both ranges are {v}, the singleton of v, so the pool of five
    # sets holds three distinct ones; each ordered pair of those that the
    # sabotaged projections break gives one product line, and no pair of
    # repeated sets adds another
    pres = load("ef.ug")
    report = verify_generator_relations(pres, depth=3, image=_sabotage_projections)
    sets = [VertexSet.of(v) for v in pres.all_vertices()]
    sets += [pres.edges[eid].range for eid in sorted(pres.edges)] + [pres.g0_universe()]
    distinct = set(sets)
    assert len(sets) == 5 and len(distinct) == 3

    def img(vset):
        return _sabotage_projections(pres, "p", vset)

    broken = sum(img(a) * img(b) != img(a.intersection(b)) for a in distinct for b in distinct)
    assert 0 < broken < 9
    lines = report["failures"].count("projection product disagrees with intersection")
    assert lines == broken and not report["relation1"]


@pytest.mark.dash_o
def test_relation_verdicts_do_not_depend_on_depth():
    rng = random.Random(1729)
    cases = [(load(name), phi_image) for name in FINITE_CORPUS]
    cases += [(random_presentation(rng, max_vertices=4, max_edges=5), phi_image) for _ in range(20)]
    cases += [(load("ef.ug"), image) for image in (_sabotage_inverse, _sabotage_projections)]
    for pres, image in cases:
        reports = [verify_generator_relations(pres, depth=d, image=image) for d in range(1, 5)]
        assert all(r == reports[0] for r in reports), (pres.name, image.__name__)
        assert reports[0]["all_pass"] == (image is phi_image), (pres.name, image.__name__)
    # SkewElement == against refining both sides to each fixed depth, on
    # pairs of different depths, some equal and some apart on one atom
    compared = 0
    for pres, _ in cases[:-2]:
        for d1, d2 in ((1, 2), (1, 3), (2, 3), (2, 4)):
            f = DElement(pres, d1, {k: rng.choice([0, 1, 2, -1]) for k in atoms(pres, d1)})
            g = f.refine_to(d2)
            key = rng.choice(atoms(pres, d2))
            g_apart = DElement(pres, d2, {**g.values, key: g.values.get(key, 0) + 1})
            key = rng.choice(atoms(pres, d1))
            f_apart = DElement(pres, d1, {**f.values, key: f.values.get(key, 0) - 1})
            h = DElement(pres, d2, {k: rng.choice([0, 1]) for k in atoms(pres, d2)})
            t = rng.choice(_words(pres))
            assert SkewElement.of(pres, t, f) == SkewElement.of(pres, t, g)
            assert SkewElement.of(pres, t, f) != SkewElement.of(pres, t, g_apart)
            assert SkewElement.of(pres, t, f_apart) != SkewElement.of(pres, t, g)
            for x, y in ((f, g), (f, g_apart), (f_apart, g), (f, h)):
                u, v = SkewElement.of(pres, t, x), SkewElement.of(pres, t, y)
                for depth in range(1, 6):
                    assert (u == v) == refined_eq(u, v, depth), (pres.name, d1, d2, depth)
                    assert (v == u) == refined_eq(v, u, depth), (pres.name, d1, d2, depth)
                    compared += 1
    assert compared == 25 * 4 * 4 * 5


def test_f_degree_matches_grading_tag_random_monomials():
    rng = random.Random(919)
    checked = 0
    while checked < 100:
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        alpha, bet = random_path(rng, pres), random_path(rng, pres)
        x = AlgebraElement.monomial(pres, alpha, pres.g0_universe(), bet)
        if x.is_zero():
            continue
        image = phi_of_element(pres, x)
        assert image.grading_tags() == [f_degree(x)]
        checked += 1
