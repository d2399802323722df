"""Eventually periodic subsets of the natural numbers, as integer bitmasks.

An `IndexSet` is four integers: a prefix of `prefix_len` bits, then a
period of `period_len` bits repeated forever.  Bit i of `prefix_mask` says
whether i is a member (i < prefix_len); bit j of `period_mask` says whether
prefix_len + j + k*period_len is a member for every k >= 0.  Masks never
carry bits at or above their lengths.

Every value is kept in canonical form: the period is minimal (it is not a
repetition of a shorter word), and then the prefix is minimal (its last bit
differs from the period continued backwards by one step).  So structural
equality and hashing coincide with set equality, and a finite set is just
its mask: (mask.bit_length(), mask, 1, 0).  The Boolean operations align
both operands on a common prefix length and the lcm of their periods by
repeating period masks with a repunit multiply, then combine them with
`|`, `&` and `& ~` and canonicalise the result; finite operands skip the
alignment.  The `prefix` and `period` properties give the same bits as
tuples of bools, for printing and for tests.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator


def _low(n: int) -> int:
    """The mask of the n lowest bits."""
    return (1 << n) - 1


def _rotate(word: int, width: int, shift: int) -> int:
    """`word` read from phase `shift`: bit j of the result is bit
    (j + shift) mod width of word."""
    shift %= width
    if not shift:
        return word
    return ((word >> shift) | (word << (width - shift))) & _low(width)


def _cycle(word: int, width: int, phase: int, n: int) -> int:
    """The first n bits of the periodic word `word` started at `phase`."""
    if not word:
        return 0
    word = _rotate(word, width, phase)
    copies = -(-n // width)
    if copies > 1:
        word *= _low(width * copies) // _low(width)  # repunit in base 2**width
    return word & _low(n)


class IndexSet:
    """An eventually periodic subset of ℕ in canonical mask form.

    Values are immutable: build them with the static constructors or the
    Boolean operations, never by assigning to the fields."""

    __slots__ = ("prefix_len", "prefix_mask", "period_len", "period_mask")

    def __init__(self, prefix_len: int, prefix_mask: int, period_len: int, period_mask: int):
        """The raw fields, taken as given; they must already be canonical."""
        self.prefix_len = prefix_len
        self.prefix_mask = prefix_mask
        self.period_len = period_len
        self.period_mask = period_mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return (
            self.prefix_mask == other.prefix_mask
            and self.period_mask == other.period_mask
            and self.prefix_len == other.prefix_len
            and self.period_len == other.period_len
        )

    def __hash__(self) -> int:
        return hash((self.prefix_len, self.prefix_mask, self.period_len, self.period_mask))

    def __repr__(self) -> str:
        return f"IndexSet.make({self.prefix!r}, {self.period!r})"

    # -- construction ---------------------------------------------------

    @staticmethod
    def make(prefix: Iterable[bool], period: Iterable[bool]) -> "IndexSet":
        pre = [bool(b) for b in prefix]
        per = [bool(b) for b in period]
        if not per:
            raise ValueError("period must be nonempty")
        return _canonical(
            len(pre),
            sum(1 << i for i, b in enumerate(pre) if b),
            len(per),
            sum(1 << j for j, b in enumerate(per) if b),
        )

    @staticmethod
    def full() -> "IndexSet":
        return _FULL

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "IndexSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError("indices must be nonnegative")
            mask |= 1 << i
        return _finite(mask)

    @staticmethod
    def progression(a: int, b: int, n0: int = 0) -> "IndexSet":
        """The set {a*n + b : n >= n0}."""
        if a < 0:
            raise ValueError("step must be nonnegative")
        start = a * n0 + b
        if start < 0:
            raise ValueError("progression leaves the naturals")
        if a == 0:
            return _finite(1 << start)
        return _canonical(start, 0, a, 1)

    @staticmethod
    def from_window(p: int, q: int, bits: int) -> "IndexSet":
        """The set whose members below p + q are the bits of `bits` and
        whose last q of those repeat forever: the inverse of bits_below(p
        + q) for a set with prefix_len <= p and period_len dividing q."""
        return _canonical(p, bits & _low(p), q, bits >> p)

    # -- the bits as tuples of bools (read-only views) -------------------

    @property
    def prefix(self) -> tuple[bool, ...]:
        return tuple(self.prefix_mask >> i & 1 == 1 for i in range(self.prefix_len))

    @property
    def period(self) -> tuple[bool, ...]:
        return tuple(self.period_mask >> j & 1 == 1 for j in range(self.period_len))

    def sort_key(self) -> tuple[str, str]:
        """Orders sets as the pair (prefix, period) of bool tuples would."""
        return (
            bin(self.prefix_mask | 1 << self.prefix_len)[:2:-1],
            bin(self.period_mask | 1 << self.period_len)[:2:-1],
        )

    # -- membership and structure -------------------------------------

    def member(self, i: int) -> bool:
        if i < 0:
            return False
        if self.prefix_mask >> i & 1:  # the mask has no bits past the prefix
            return True
        p = self.prefix_len
        if i < p or not self.period_mask:
            return False
        return self.period_mask >> (i - p) % self.period_len & 1 == 1

    def is_finite(self) -> bool:
        return not self.period_mask

    def is_empty(self) -> bool:
        return not self.prefix_mask and not self.period_mask

    def min_element(self) -> int | None:
        if self.prefix_mask:
            return (self.prefix_mask & -self.prefix_mask).bit_length() - 1
        if self.period_mask:
            return self.prefix_len + (self.period_mask & -self.period_mask).bit_length() - 1
        return None

    def iter_elements(self, bound: int | None = None) -> Iterator[int]:
        """Elements in increasing order; stops at `bound` (exclusive) or,
        for finite sets, at exhaustion."""
        mask = self.prefix_mask
        if bound is not None:
            mask &= _low(max(bound, 0))
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        if not self.period_mask:
            return
        step = self.period_len
        offsets = [j for j in range(step) if self.period_mask >> j & 1]
        base = self.prefix_len
        while True:
            for j in offsets:
                if bound is not None and base + j >= bound:
                    return
                yield base + j
            base += step

    # -- Boolean algebra ----------------------------------------------

    def bits_below(self, n: int) -> int:
        """The membership mask of {0, ..., n-1}."""
        p = self.prefix_len
        if n <= p:
            return self.prefix_mask & _low(n)
        return self.prefix_mask | _cycle(self.period_mask, self.period_len, 0, n - p) << p

    def _aligned(self, other: "IndexSet") -> tuple[int, int, int, int, int, int]:
        """(p, q, a1, b1, a2, b2): both sets over a common prefix of p bits
        and a common period of q bits."""
        p = max(self.prefix_len, other.prefix_len)
        q = lcm(self.period_len, other.period_len)
        return (
            p,
            q,
            self.bits_below(p),
            _cycle(self.period_mask, self.period_len, p - self.prefix_len, q),
            other.bits_below(p),
            _cycle(other.period_mask, other.period_len, p - other.prefix_len, q),
        )

    def union(self, other: "IndexSet") -> "IndexSet":
        if not self.period_mask and not other.period_mask:
            return _finite(self.prefix_mask | other.prefix_mask)
        p, q, a1, b1, a2, b2 = self._aligned(other)
        return _canonical(p, a1 | a2, q, b1 | b2)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        if not self.period_mask:
            return _finite(self.prefix_mask & other.bits_below(self.prefix_len))
        if not other.period_mask:
            return _finite(other.prefix_mask & self.bits_below(other.prefix_len))
        p, q, a1, b1, a2, b2 = self._aligned(other)
        return _canonical(p, a1 & a2, q, b1 & b2)

    def difference(self, other: "IndexSet") -> "IndexSet":
        if not self.period_mask:
            return _finite(self.prefix_mask & ~other.bits_below(self.prefix_len))
        p, q, a1, b1, a2, b2 = self._aligned(other)
        return _canonical(p, a1 & ~a2, q, b1 & ~b2)

    def complement(self) -> "IndexSet":
        """Complement within the naturals."""
        # flipping every bit keeps both minimality conditions
        return IndexSet(
            self.prefix_len,
            self.prefix_mask ^ _low(self.prefix_len),
            self.period_len,
            self.period_mask ^ _low(self.period_len),
        )

    def subset_of(self, other: "IndexSet") -> bool:
        if not self.period_mask:
            return not self.prefix_mask & ~other.bits_below(self.prefix_len)
        _, _, a1, b1, a2, b2 = self._aligned(other)
        return not (a1 & ~a2 or b1 & ~b2)

    def __bool__(self) -> bool:
        return not self.is_empty()


def _finite(mask: int) -> IndexSet:
    return IndexSet(mask.bit_length(), mask, 1, 0)


def _canonical(p: int, a: int, q: int, b: int) -> IndexSet:
    """The canonical IndexSet of prefix mask a (p bits), period mask b (q bits)."""
    if not b:
        return _finite(a)
    if b == _low(q):
        q, b = 1, 1
    else:
        for d in range(1, q // 2 + 1):
            if q % d == 0 and _rotate(b, q, d) == b:
                q, b = d, b & _low(d)
                break
    if p:
        # drop the prefix bits that the period, continued backwards, predicts
        keep = (a ^ _cycle(b, q, -p, p)).bit_length()
        if keep < p:
            b = _rotate(b, q, keep - p)
            a &= _low(keep)
            p = keep
    return IndexSet(p, a, q, b)


_FULL = IndexSet(0, 0, 1, 1)
