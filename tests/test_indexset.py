"""Eventually periodic index sets: canonical form and Boolean algebra.

Everything is cross-checked against pointwise membership computed from the
raw (prefix, period) bit lists the sets were made from, on an initial
segment long enough to cover the prefixes and the joint period of all
operands.  Prefixes run past 64 bits so that masks cross the machine word."""

from __future__ import annotations

from math import lcm

from hypothesis import given, strategies as st

from ultragrade.indexset import IndexSet
from ultragrade.model import VertexRef, VertexSet

# (prefix bits, period bits) as given to IndexSet.make, before canonical form
raw_sets = st.tuples(
    st.lists(st.booleans(), max_size=70),
    st.lists(st.booleans(), min_size=1, max_size=8),
)
index_sets = raw_sets.map(lambda raw: IndexSet.make(*raw))


def raw_member(raw, i: int) -> bool:
    pre, per = raw
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def _raw_span(*raws) -> int:
    """Past every prefix by the joint period: membership repeats after it."""
    return max(len(pre) for pre, _ in raws) + lcm(*(len(per) for _, per in raws))


def _span(*sets: IndexSet) -> int:
    out = 1
    for s in sets:
        out = max(out, len(s.prefix) + 2 * len(s.period))
    return 2 * out + 4


@given(index_sets, index_sets)
def test_union_pointwise(a, b):
    u = a.union(b)
    for i in range(_span(a, b, u)):
        assert u.member(i) == (a.member(i) or b.member(i))


@given(index_sets, index_sets)
def test_intersection_pointwise(a, b):
    u = a.intersection(b)
    for i in range(_span(a, b, u)):
        assert u.member(i) == (a.member(i) and b.member(i))


@given(index_sets, index_sets)
def test_difference_pointwise(a, b):
    u = a.difference(b)
    for i in range(_span(a, b, u)):
        assert u.member(i) == (a.member(i) and not b.member(i))


@given(index_sets)
def test_complement_involution(a):
    assert a.complement().complement() == a


@given(index_sets, index_sets)
def test_equality_is_extensional(a, b):
    same = all(a.member(i) == b.member(i) for i in range(_span(a, b)))
    assert (a == b) == same
    if a == b:
        assert hash(a) == hash(b)


@given(raw_sets)
def test_membership_matches_raw_bits(raw):
    s = IndexSet.make(*raw)
    assert not s.member(-1)
    for i in range(_raw_span(raw) + len(raw[1])):
        assert s.member(i) == raw_member(raw, i)


@given(raw_sets)
def test_canonical_form_round_trip(raw):
    s = IndexSet.make(*raw)
    assert IndexSet.make(s.prefix, s.period) == s
    assert len(s.prefix) <= len(raw[0]) and len(s.period) <= len(raw[1])
    # minimal period: not a repetition of a shorter word
    per = s.period
    for d in range(1, len(per)):
        if len(per) % d == 0:
            assert per != per[:d] * (len(per) // d)
    # minimal prefix: its last bit is not the period continued backwards
    if s.prefix:
        assert s.prefix[-1] != per[-1]


@given(raw_sets, st.integers(min_value=2, max_value=3))
def test_equal_sets_from_other_words_are_equal(raw, k):
    pre, per = raw
    s = IndexSet.make(pre, per)
    assert IndexSet.make(pre, per * k) == s
    assert IndexSet.make(pre + per, per) == s
    assert IndexSet.make(pre + per[:1], per[1:] + per[:1]) == s


@given(raw_sets)
def test_complement_pointwise(raw):
    c = IndexSet.make(*raw).complement()
    for i in range(_raw_span(raw)):
        assert c.member(i) == (not raw_member(raw, i))


@given(raw_sets, raw_sets)
def test_subset_pointwise(ra, rb):
    a, b = IndexSet.make(*ra), IndexSet.make(*rb)
    expected = all(
        raw_member(rb, i) for i in range(_raw_span(ra, rb)) if raw_member(ra, i)
    )
    assert a.subset_of(b) == expected


@given(raw_sets)
def test_structure_pointwise(raw):
    s = IndexSet.make(*raw)
    pre, per = raw
    assert s.is_finite() == (not any(per))
    assert s.is_cofinite() == all(per)
    assert s.is_empty() == (not any(pre) and not any(per))
    assert bool(s) == (not s.is_empty())
    members = [i for i in range(_raw_span(raw)) if raw_member(raw, i)]
    assert s.cardinality() == (len(members) if not any(per) else None)
    assert s.min_element() == (members[0] if members else None)


@given(raw_sets, st.integers(min_value=-2, max_value=200))
def test_iter_elements_pointwise(raw, bound):
    s = IndexSet.make(*raw)
    assert list(s.iter_elements(bound)) == [i for i in range(bound) if raw_member(raw, i)]
    if s.is_finite():
        assert s.elements() == [i for i in range(len(raw[0])) if raw_member(raw, i)]


@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=5),
)
def test_progression_pointwise(a, b, n0):
    s = IndexSet.progression(a, b, n0)
    for i in range(b + a * (n0 + 3) + 2):
        expected = any(a * n + b == i for n in range(n0, n0 + i + 1))
        assert s.member(i) == expected


def test_progression():
    s = IndexSet.progression(2, 0)  # even numbers
    assert [s.member(i) for i in range(6)] == [True, False, True, False, True, False]
    t = IndexSet.progression(3, 1, n0=2)  # {7, 10, 13, ...}
    assert not t.member(4)
    assert t.member(7) and t.member(10) and not t.member(8)


def test_finite_helpers():
    s = IndexSet.from_indices([0, 3])
    assert s.is_finite() and s.cardinality() == 2 and s.elements() == [0, 3]
    assert IndexSet.empty().is_empty()
    assert IndexSet.full().is_cofinite()
    assert IndexSet.from_indices([]).is_empty()
    big = IndexSet.from_indices([0, 64, 129])
    assert big.elements() == [0, 64, 129] and big.member(129) and not big.member(128)


@given(index_sets)
def test_subset_reflexive_and_via_difference(a):
    assert a.subset_of(a)
    assert a.difference(a).is_empty()


# -- vertex sets: per-family merge -----------------------------------------


def vertex_sets(families):
    return st.dictionaries(st.sampled_from(families), raw_sets, max_size=len(families))


def _vset(raws) -> VertexSet:
    return VertexSet.make({fam: IndexSet.make(*raw) for fam, raw in raws.items()})


def _vset_member(raws, fam, i) -> bool:
    return fam in raws and raw_member(raws[fam], i)


def _check_vertex_set_ops(ra, rb, families):
    a, b = _vset(ra), _vset(rb)
    span = _raw_span(*ra.values(), *rb.values()) if ra or rb else 1
    results = {
        "union": (a.union(b), lambda x, y: x or y),
        "intersection": (a.intersection(b), lambda x, y: x and y),
        "difference": (a.difference(b), lambda x, y: x and not y),
    }
    for out, fn in results.values():
        fams = [fam for fam, _ in out.parts]
        assert fams == sorted(set(fams)) and all(s for _, s in out.parts)
        for fam in families:
            for i in range(span):
                expected = fn(_vset_member(ra, fam, i), _vset_member(rb, fam, i))
                assert out.member(VertexRef(fam, i)) == expected
    subset = all(
        _vset_member(rb, fam, i)
        for fam in families
        for i in range(span)
        if _vset_member(ra, fam, i)
    )
    assert a.subset_of(b) == subset


@given(vertex_sets(["a"]), vertex_sets(["a"]))
def test_vertex_set_ops_one_shared_family(ra, rb):
    _check_vertex_set_ops(ra, rb, ["a"])


@given(vertex_sets(["a", "b", "c"]), vertex_sets(["a", "b", "c"]))
def test_vertex_set_ops_merge_pointwise(ra, rb):
    _check_vertex_set_ops(ra, rb, ["a", "b", "c"])
