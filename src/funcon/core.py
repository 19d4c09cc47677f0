"""Value-level vocabulary: domains, tuples, function tables, relations,
constraints, and arity-indexed collections of them.

Elements of a finite domain are integer indices 0..size-1.  Tuples over a
domain are addressed by their lexicographic rank (first coordinate most
significant), and relations are stored as bit-addressable sets over those
ranks, so subset/intersection/union are single word operations.

Both sides of the Galois connection share the arity-indexed container
``ArityIndexed``: members are held as integer keys and decoded only for I/O
and witnesses.  A ``ConstraintSet`` holds each arity as a frozenset
of ``(antecedent.bits, consequent.bits)`` pairs; ``from_floors`` builds one
from the least consequent of each antecedent.  A ``FunctionClass`` keys an
n-ary table by its rank, the table read as base-|B| digits with the first
entry most significant, and holds each arity in the form that built it: a
frozenset of ranks from the constructor and ``from_tables``, or a bitmask over
the ranks from ``from_masks``, the form the kernels produce.  The other form
is derived on first read and cached.  Every container operation (equality,
subset, union, difference, ``len``, ``in``, ``tables``) reads ranks, so only
``FunctionClass.mask`` builds a mask from ranks.
``column_masks`` gives, per argument point and value, the bitmask over the
whole |B|^(|A|^n)-table universe of the ranks taking that value there, so the
Galois maps become AND/OR operations on these truth-table columns.

Two kernels turn digits into ranks: ``tuple_rank`` ranks one tuple and
checks its entries, and ``readings(h, k, size)`` tabulates, per k-tuple rank,
the rank of that tuple read through the coordinate map h.  A variable
substitution and a minor scheme's source map are both such readings.
``column_masks`` and the signature and probe kernels of ``satisfaction``
keep their own digit arithmetic: ``satisfies`` is their scalar reference in
the differential tests, so it shares no code with them.

The subset-lattice kernels are ``submasks``, the subsets of one mask, and
``subset_fold``, which folds a table indexed by masks over every subset for
``lo_n_closure``; S_min in ``satisfaction`` has its own recurrence.

``within_budget`` is the single enumeration guard: every refusal in the
package passes a count through it, and it raises ``BudgetExceededError``
carrying that count when the count exceeds the budget.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_ENUMERATION_BUDGET = 1_000_000


class ArityMismatchError(ValueError):
    pass


class DomainMismatchError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """Raised instead of silently attempting a doubly exponential enumeration."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


def within_budget(count: int, budget: int, what: str) -> int:
    """The one enumeration guard: ``count`` if it fits the budget, otherwise a
    ``BudgetExceededError`` naming what was counted."""
    if count > budget:
        raise BudgetExceededError(f"{what}: {count} exceeds budget {budget}", count)
    return count


def capped_arities(cap: int) -> range:
    """The arities 1..cap of a union or closure capped at ``cap``; the one
    place a cap below 1 is refused."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return range(1, cap + 1)


@dataclass(frozen=True, order=True)
class DomainSpec:
    """A named finite set, identified with {0, ..., size-1}."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"domain {self.name!r} must have size >= 1, got {self.size}")

    def elements(self) -> range:
        return range(self.size)


def tuple_rank(entries: Sequence[int], size: int) -> int:
    """Lexicographic rank of a tuple, first coordinate most significant."""
    rank = 0
    for e in entries:
        if not 0 <= e < size:
            raise ValueError(f"entry {e} out of range for domain of size {size}")
        rank = rank * size + e
    return rank


def tuple_unrank(rank: int, size: int, arity: int) -> tuple[int, ...]:
    """Inverse of tuple_rank at the given arity."""
    if not 0 <= rank < size**arity:
        raise ValueError(f"rank {rank} out of range for size {size}, arity {arity}")
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        rank, out[i] = divmod(rank, size)
    return tuple(out)


@lru_cache(maxsize=4096)
def readings(h: tuple[int, ...], k: int, size: int) -> tuple[int, ...]:
    """Entry ``x``: the rank of ``(x[h[0]], .., x[h[-1]])`` for the k-tuple of
    rank ``x``.  h may repeat coordinates and skip others."""
    if any(not 0 <= e < k for e in h):
        raise ValueError(f"reading {h} out of range for arity {k}")
    out = [0] * size**k
    for i in range(k):  # add coordinate i's digit times its weight in the reading
        weight = sum(size ** (len(h) - 1 - j) for j, e in enumerate(h) if e == i)
        stride = size ** (k - 1 - i)
        out = [r + x // stride % size * weight for x, r in enumerate(out)]
    return tuple(out)


@lru_cache(maxsize=64)
def permutation_tables(p: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """The coordinate permutation p on rank masks over size^len(p), by bytes: table c sends bits 8c..8c+7
    of a mask R to their bits in R's tight minor through p, {x : x read through p is in R}."""
    inverse = tuple(sorted(range(len(p)), key=p.__getitem__))  # its readings invert those of p
    bits = [1 << x for x in readings(inverse, len(p), size)]
    return tuple(tuple(reduce(lambda table, bit: table + [t | bit for t in table], bits[c : c + 8], [0]))
                 for c in range(0, len(bits), 8))


def permute(tables: tuple[tuple[int, ...], ...], mask: int) -> int:
    """The mask moved through its ``permutation_tables``."""
    return sum(map(operator.getitem, tables, mask.to_bytes(len(tables), "little")))


@dataclass(frozen=True, order=True)
class FunctionTable:
    """An n-ary cod-valued function on dom, as an explicit value table.

    ``table[r]`` is the value at the argument tuple of rank ``r``; the table
    therefore has exactly ``dom.size ** arity`` entries.
    """

    dom: DomainSpec
    cod: DomainSpec
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if self.arity < 1:
            raise ValueError("function arity must be >= 1")
        expected = self.dom.size**self.arity
        if len(self.table) != expected:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {expected} "
                f"for arity {self.arity} over domain of size {self.dom.size}"
            )
        for v in self.table:
            if not 0 <= v < self.cod.size:
                raise ValueError(f"table value {v} out of range for codomain {self.cod.name!r}")

    def __call__(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise ArityMismatchError(f"expected {self.arity} arguments, got {len(args)}")
        return self.table[tuple_rank(args, self.dom.size)]

    def rank(self) -> int:
        """Rank of the table itself, read as base-|cod| digits."""
        return tuple_rank(self.table, self.cod.size)

    @classmethod
    def unrank(cls, dom: DomainSpec, cod: DomainSpec, arity: int, rank: int) -> "FunctionTable":
        """Inverse of ``rank``: the table of the given rank."""
        return cls(dom, cod, arity, tuple_unrank(rank, cod.size, dom.size**arity))

    def apply_pointwise(self, rows: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        """Apply to n chosen m-tuples coordinatewise: out_i = f(rows[0][i], ..).

        Ragged rows and entries outside the domain raise ``ValueError``."""
        if len(rows) != self.arity:
            raise ArityMismatchError(f"expected {self.arity} rows, got {len(rows)}")
        size = self.dom.size
        return tuple(self.table[tuple_rank(col, size)] for col in zip(*rows, strict=True))


@dataclass(frozen=True)
class Relation:
    """An m-ary relation over a finite domain, stored as a bitmask of ranks."""

    domain: DomainSpec
    arity: int
    bits: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if self.bits < 0 or self.bits >> self.universe_size:
            raise ValueError("relation bitmask has members outside the universe")

    @property
    def universe_size(self) -> int:
        return self.domain.size**self.arity

    @classmethod
    def from_tuples(cls, domain: DomainSpec, arity: int, tuples: Iterable[Sequence[int]]) -> "Relation":
        bits = 0
        for t in tuples:
            if len(t) != arity:
                raise ArityMismatchError(f"tuple {tuple(t)} does not have arity {arity}")
            bits |= 1 << tuple_rank(t, domain.size)
        return cls(domain, arity, bits)

    @classmethod
    def from_ranks(cls, domain: DomainSpec, arity: int, ranks: Iterable[int]) -> "Relation":
        bits = 0
        limit = domain.size**arity
        for r in ranks:
            if not 0 <= r < limit:
                raise ValueError(f"rank {r} out of range for {domain.name!r}^{arity}")
            bits |= 1 << r
        return cls(domain, arity, bits)

    @classmethod
    def empty(cls, domain: DomainSpec, arity: int) -> "Relation":
        return cls(domain, arity, 0)

    @classmethod
    def full(cls, domain: DomainSpec, arity: int) -> "Relation":
        return cls(domain, arity, (1 << domain.size**arity) - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def contains_rank(self, rank: int) -> bool:
        return (self.bits >> rank) & 1 == 1

    def contains_tuple(self, t: Sequence[int]) -> bool:
        return self.contains_rank(tuple_rank(t, self.domain.size))

    def tuples(self) -> list[tuple[int, ...]]:
        """The member tuples in rank order, which is lexicographic order."""
        size, bits = self.domain.size, self.bits
        return [tuple_unrank(r, size, self.arity) for r in range(self.universe_size) if bits >> r & 1]

    def _check_compatible(self, other: "Relation") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError(f"relations over {self.domain.name!r} and {other.domain.name!r}")
        if self.arity != other.arity:
            raise ArityMismatchError(f"relation arities {self.arity} and {other.arity} differ")

    def issubset(self, other: "Relation") -> bool:
        self._check_compatible(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "Relation") -> bool:
        return self.issubset(other)

    def __or__(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.domain, self.arity, self.bits | other.bits)

    def __and__(self, other: "Relation") -> "Relation":
        self._check_compatible(other)
        return Relation(self.domain, self.arity, self.bits & other.bits)


@dataclass(frozen=True)
class Constraint:
    """An antecedent relation over A paired with a consequent over B, equal arity."""

    antecedent: Relation
    consequent: Relation

    def __post_init__(self) -> None:
        if self.antecedent.arity != self.consequent.arity:
            raise ArityMismatchError(
                f"antecedent arity {self.antecedent.arity} != consequent arity {self.consequent.arity}"
            )

    @property
    def arity(self) -> int:
        return self.antecedent.arity

    @property
    def dom(self) -> DomainSpec:
        return self.antecedent.domain

    @property
    def cod(self) -> DomainSpec:
        return self.consequent.domain


def relaxation_of(c: Constraint, c0: Constraint) -> bool:
    """True iff c shrinks the antecedent and grows the consequent of c0."""
    if c.arity != c0.arity:
        raise ArityMismatchError(f"constraint arities {c.arity} and {c0.arity} differ")
    return c.antecedent.issubset(c0.antecedent) and c0.consequent.issubset(c.consequent)


def canonical_constraint(kind: str, m: int, dom: DomainSpec, cod: DomainSpec) -> Constraint:
    """The distinguished constraints: equality, empty, trivial, all at arity m."""
    if m < 1:
        raise ValueError("constraint arity must be >= 1")
    if kind == "equality":
        ante = Relation.from_tuples(dom, m, ((a,) * m for a in dom.elements()))
        cons = Relation.from_tuples(cod, m, ((b,) * m for b in cod.elements()))
        return Constraint(ante, cons)
    if kind == "empty":
        return Constraint(Relation.empty(dom, m), Relation.empty(cod, m))
    if kind == "trivial":
        return Constraint(Relation.full(dom, m), Relation.full(cod, m))
    raise ValueError(f"unknown canonical constraint kind {kind!r}")


def projection(dom: DomainSpec, n: int, i: int) -> FunctionTable:
    """The n-ary projection onto coordinate i (1-based) over dom."""
    if not 1 <= i <= n:
        raise ValueError(f"projection coordinate {i} out of range 1..{n}")
    return FunctionTable(dom, dom, n, readings((i - 1,), n, dom.size))


def function_count(dom: DomainSpec, cod: DomainSpec, n: int) -> int:
    return cod.size ** (dom.size**n)


@lru_cache(maxsize=16)
def column_masks(dom: DomainSpec, cod: DomainSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """``col[p][v]``: the bitmask over table ranks of the n-ary functions whose
    entry at argument point ``p`` is ``v``.

    Each mask has ``function_count(dom, cod, n)`` bits, so callers build the
    table only after checking that count against their enumeration budget.
    """
    size, points = cod.size, dom.size**n
    count = size**points
    cols = []
    for p in range(points):
        stride = size ** (points - 1 - p)  # the digit of point p has this weight
        row = []
        for v in range(size):
            # bit strings are written least significant bit first, then reversed
            period = "0" * (v * stride) + "1" * stride + "0" * ((size - 1 - v) * stride)
            row.append(int((period * (count // (size * stride)))[::-1], 2))
        cols.append(tuple(row))
    return tuple(cols)


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_BITS = bytes.maketrans(b"\x00\x01", b"01")


def submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def subset_fold(table: list, op) -> list:
    """Fold ``table``, indexed by subset masks and of power-of-two length, in
    place: entry r becomes ``op`` over the entries of every subset of r."""
    for i in range(len(table).bit_length() - 1):
        for r in range(len(table)):
            if r >> i & 1:
                table[r] = op(table[r], table[r ^ 1 << i])
    return table


def ranks_of_mask(mask: int) -> frozenset[int]:
    """The positions of the set bits of a non-negative mask."""
    digits = format(mask, "b")[::-1].encode().translate(_BIT_DIGITS)
    return frozenset(itertools.compress(itertools.count(), digits))


def mask_of_ranks(ranks: Iterable[int], count: int) -> int:
    """The mask with bits set at the given ranks, all below ``count``."""
    digits = bytearray(count)
    for r in ranks:
        digits[r] = 1
    return int(digits[::-1].translate(_DIGIT_BITS), 2)


def enumerate_functions(
    dom: DomainSpec,
    cod: DomainSpec,
    n: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[FunctionTable]:
    """All n-ary cod-valued functions on dom, in table-rank order."""
    if n < 1:
        raise ValueError("function arity must be >= 1")
    within_budget(function_count(dom, cod, n), budget, f"functions of arity {n}")
    for table in itertools.product(range(cod.size), repeat=dom.size**n):
        yield FunctionTable(dom, cod, n, table)


def _grouped_by_arity(members: Iterable) -> dict[int, set]:
    by_arity: dict[int, set] = {}
    for x in members:
        by_arity.setdefault(x.arity, set()).add(x)
    return by_arity


@dataclass(frozen=True)
class ArityIndexed:
    """An arity-indexed collection over a common dom and cod, each arity held
    as a frozenset of integer keys.

    A subclass fixes its member type, ``_member``, and what a key is:
    ``_encode`` validates the members given for one arity and converts them to
    keys, ``decode`` turns one key back into a member.  The constructor takes the members of each arity as
    ``by_arity``; ``arities`` and ``ranks`` read the keys back.  Empty arities
    are dropped and the arities kept sorted.  ``|``, ``-`` and ``issubset``
    take a collection of the same type over the same domains.
    """

    dom: DomainSpec
    cod: DomainSpec
    by_arity: InitVar[Mapping[int, Iterable]]
    _keys: dict[int, frozenset] = field(init=False, repr=False)

    def __post_init__(self, by_arity: Mapping[int, Iterable]) -> None:
        out: dict[int, frozenset] = {}
        for arity, members in sorted(by_arity.items()):
            members = frozenset(members)
            if not members:
                continue
            out[arity] = self._encode(arity, members)
        object.__setattr__(self, "_keys", out)

    @classmethod
    def _of_keys(cls, dom: DomainSpec, cod: DomainSpec, keys: Mapping[int, frozenset]):
        """A collection of keys already checked for their arities."""
        out = cls(dom, cod, {})
        out._keys.update((n, k) for n, k in sorted(keys.items()) if k)
        return out

    def decode(self, arity: int, key):
        """The member of the given arity stored under ``key``."""
        raise NotImplementedError

    @classmethod
    def empty(cls, dom: DomainSpec, cod: DomainSpec):
        return cls(dom, cod, {})

    def arities(self) -> tuple[int, ...]:
        return tuple(self._keys)

    def ranks(self, arity: int) -> frozenset:
        """The keys of one arity."""
        return self._keys.get(arity, frozenset())

    def _by_arity(self) -> dict[int, frozenset]:
        """Every arity with its keys."""
        return {n: self.ranks(n) for n in self.arities()}

    def members(self, arity: int) -> frozenset:
        return frozenset(self.decode(arity, key) for key in self.ranks(arity))

    def sorted_keys(self) -> list[tuple[int, object]]:
        """(arity, key) of every member, by arity and then by key."""
        return [(n, key) for n in self.arities() for key in sorted(self.ranks(n))]

    def _sorted_members(self) -> list:
        """Every member, decoded, by arity and then by key."""
        return [self.decode(n, key) for n, key in self.sorted_keys()]

    def __len__(self) -> int:
        return sum(len(self.ranks(n)) for n in self.arities())

    def __contains__(self, member) -> bool:
        """Membership of a decoded member; any other object is not a member."""
        if not isinstance(member, self._member) or (member.dom, member.cod) != (self.dom, self.cod):
            return False
        (key,) = self._encode(member.arity, frozenset([member]))
        return key in self.ranks(member.arity)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dom, self.cod, self._by_arity()) == (other.dom, other.cod, other._by_arity())

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.arities()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dom={self.dom!r}, cod={self.cod!r}, by_arity={self._by_arity()!r})"

    def _combine(self, other, op):
        """``op`` of the two key sets of every arity of either collection."""
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise DomainMismatchError("cannot combine collections over different domains")
        arities = {*self.arities(), *other.arities()}
        return self._of_keys(self.dom, self.cod, {n: op(self.ranks(n), other.ranks(n)) for n in arities})

    def __or__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, operator.or_)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, operator.sub)

    def issubset(self, other) -> bool:
        if type(other) is not type(self):
            raise TypeError(f"a {type(self).__name__} is not comparable with a {type(other).__name__}")
        return not (self - other).arities()


@dataclass(frozen=True, eq=False, repr=False)
class FunctionClass(ArityIndexed):
    """An arity-indexed collection of functions with common dom and cod.

    Each arity is held in the form that built it.  The constructor and
    ``from_tables`` hold the ranks of the member tables (see
    ``FunctionTable.rank``), converting ``FunctionTable`` members to ranks;
    ``from_masks`` holds the bitmask over table ranks that the kernels produce
    (see ``mask``).  ``ranks`` derives the ranks of a held mask on first read
    and ``mask`` the mask of held ranks, each cached.  Every other operation
    reads ranks, so only ``mask`` builds a mask.  ``members`` and ``tables``
    decode tables back for I/O and witnesses.
    """

    _member = FunctionTable
    _masks: dict[int, int] = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_masks(cls, dom: DomainSpec, cod: DomainSpec, masks: Mapping[int, int]) -> "FunctionClass":
        """A class from per-arity bitmasks over table ranks (see ``mask``)."""
        for arity, mask in masks.items():
            if arity < 1 or mask < 0 or mask >> function_count(dom, cod, arity):
                raise ValueError(f"mask out of range for arity {arity}")
        k = cls(dom, cod, {})
        # a mask in range holds valid ranks only, so the per-rank checks are skipped
        k._masks.update((n, mask) for n, mask in masks.items() if mask)
        return k

    def _encode(self, arity: int, members: frozenset) -> frozenset[int]:
        kinds = set(map(type, members))
        if kinds == {int}:
            if min(members) < 0 or max(members) >= function_count(self.dom, self.cod, arity):
                raise ValueError(f"table rank out of range for arity {arity}")
            return members
        if kinds != {FunctionTable}:
            raise TypeError("class members must be all table ranks or all FunctionTables")
        for f in members:
            if f.dom != self.dom or f.cod != self.cod:
                raise DomainMismatchError(f"function over {f.dom.name!r}->{f.cod.name!r} in class over {self.dom.name!r}->{self.cod.name!r}")
            if f.arity != arity:
                raise ArityMismatchError(f"function of arity {f.arity} stored under arity {arity}")
        return frozenset(f.rank() for f in members)

    def decode(self, arity: int, rank: int) -> FunctionTable:
        return FunctionTable.unrank(self.dom, self.cod, arity, rank)

    @classmethod
    def from_tables(
        cls,
        dom: DomainSpec,
        cod: DomainSpec,
        tables: Iterable[FunctionTable],
    ) -> "FunctionClass":
        return cls(dom, cod, _grouped_by_arity(tables))

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({*self._keys, *self._masks}))

    def ranks(self, arity: int) -> frozenset[int]:
        """The table ranks of one arity, derived from its mask on first read."""
        if arity not in self._keys and arity in self._masks:
            self._keys[arity] = ranks_of_mask(self._masks[arity])
        return self._keys.get(arity, frozenset())

    def mask(self, arity: int) -> int:
        """The members of one arity as a bitmask over table ranks.

        Built from ranks, the mask has ``function_count(dom, cod, arity)``
        bits, so callers check that count against their budget first.
        """
        if arity not in self._masks and arity in self._keys:
            count = function_count(self.dom, self.cod, arity)
            self._masks[arity] = mask_of_ranks(self._keys[arity], count)
        return self._masks.get(arity, 0)

    def tables(self) -> list[FunctionTable]:
        return self._sorted_members()


class ConstraintSet(ArityIndexed):
    """An arity-indexed collection of constraints over a common A and B.

    Each arity holds the ``(antecedent.bits, consequent.bits)`` pairs of its
    members.  The constructor also accepts ``Constraint`` members and converts
    them; ``members`` and ``constraints`` decode constraints back.
    """

    _member = Constraint

    def _encode(self, arity: int, members: frozenset) -> frozenset[tuple[int, int]]:
        kinds = set(map(type, members))
        if kinds == {tuple}:
            a_limit, b_limit = 1 << self.dom.size**arity, 1 << self.cod.size**arity
            for r, s in members:
                if not (type(r) is int and type(s) is int and 0 <= r < a_limit and 0 <= s < b_limit):
                    raise ValueError(f"bitmask pair {(r, s)} out of range for arity {arity}")
            return members
        if kinds != {Constraint}:
            raise TypeError("set members must be all bitmask pairs or all Constraints")
        for c in members:
            if c.dom != self.dom or c.cod != self.cod:
                raise DomainMismatchError(f"constraint over {c.dom.name!r}->{c.cod.name!r} in set over {self.dom.name!r}->{self.cod.name!r}")
            if c.arity != arity:
                raise ArityMismatchError(f"constraint of arity {c.arity} stored under arity {arity}")
        return frozenset((c.antecedent.bits, c.consequent.bits) for c in members)

    def decode(self, arity: int, pair: tuple[int, int]) -> Constraint:
        return Constraint(Relation(self.dom, arity, pair[0]), Relation(self.cod, arity, pair[1]))

    @classmethod
    def from_constraints(
        cls,
        dom: DomainSpec,
        cod: DomainSpec,
        constraints: Iterable[Constraint],
    ) -> "ConstraintSet":
        return cls(dom, cod, _grouped_by_arity(constraints))

    @classmethod
    def from_floors(cls, dom: DomainSpec, cod: DomainSpec, m: int, floors: Sequence[int]) -> "ConstraintSet":
        """The m-ary set of the (r, s) with s a superset of ``floors[r]``, the
        least consequent of antecedent r."""
        full = (1 << cod.size**m) - 1
        if len(floors) != 1 << dom.size**m or any(not 0 <= floor <= full for floor in floors):
            raise ValueError(f"floors out of range for arity {m}")
        pairs = [(r, floor | extra) for r, floor in enumerate(floors) for extra in submasks(full & ~floor)]
        return cls._of_keys(dom, cod, {m: frozenset(pairs)})

    def constraints(self) -> list[Constraint]:
        return self._sorted_members()


def constraint_universe_count(dom: DomainSpec, cod: DomainSpec, m: int) -> int:
    """Number of m-ary constraints: all (antecedent, consequent) pairs."""
    return 2 ** (dom.size**m) * 2 ** (cod.size**m)


def enumerate_constraints(
    dom: DomainSpec,
    cod: DomainSpec,
    m: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Constraint]:
    """All m-ary constraints, ordered by (antecedent, consequent) bitmask."""
    within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
    for r_bits in range(2 ** (dom.size**m)):
        for s_bits in range(2 ** (cod.size**m)):
            yield Constraint(Relation(dom, m, r_bits), Relation(cod, m, s_bits))
