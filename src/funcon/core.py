"""Value-level vocabulary: domains, tuples, function tables, relations,
constraints, and arity-indexed collections of them.

Elements of a finite domain are integer indices 0..size-1.  Tuples over a
domain are addressed by their lexicographic rank (first coordinate most
significant), and relations are stored as bit-addressable sets over those
ranks, so subset/intersection/union are single word operations.

Both sides of the Galois connection share the arity-indexed container
``ArityIndexed``: members are held as integer keys and decoded only for I/O
and witnesses.  A ``FunctionClass`` keys an n-ary table by its rank, the table
read as base-|B| digits with the first entry most significant, and may hold an
arity as the bitmask over those ranks that the kernels produce (``from_masks``).
A ``ConstraintSet`` keys a constraint by ``(antecedent.bits, consequent.bits)``
and may hold an arity as the least consequent of each antecedent, its floor
(``from_floors``).  Each arity keeps the one form that built it, and no read
writes it.  Only the container reads a form: ``len`` counts it, ``in`` tests
one key, ``|`` and ``-`` keep an arity that one side alone has as it is and
combine two masks into a mask, ``==`` compares two forms of one kind, and a
``ConstraintSet`` takes ``-`` by the right side's floors.  ``ranks`` derives
the keys of a held form and ``FunctionClass.mask`` the mask of held ranks on
every call.
``column_masks`` gives, per argument point and value, the bitmask over the
whole |B|^(|A|^n)-table universe of the ranks taking that value there, so the
Galois maps become AND/OR operations on these truth-table columns.

Two kernels turn digits into ranks: ``tuple_rank`` ranks one tuple and
checks its entries, and ``readings(h, k, size)`` tabulates, per k-tuple rank,
the rank of that tuple read through the coordinate map h.  A variable
substitution, a minor scheme's source map and a ``projection`` (a member of
the projection clone of the composition reference) are all such readings.
The S_m symmetry both sides read lives here alone: ``coordinate_images``, the
byte tables of each coordinate permutation, ``permute_pairs``, which moves lists
of (R, S) mask pairs through them, ``orbit_antecedents``, one R per orbit,
on which ``satisfaction._orbit_probes`` plans the composite's separators, and
``burnside_orbit_counts``, which counts those orbits without listing them.
``column_masks`` and the signature and probe kernels of ``satisfaction``
keep their own digit arithmetic: ``satisfies`` is their scalar reference in
the differential tests, so it shares no code with them.

``_pack`` lays a table of masks side by side in one int, a field of whole bytes
per entry, and ``_fields`` reads it back.  The subset-lattice kernels are
``submasks``, the subsets of one mask, and ``subset_fold``, which folds a table
over every subset for ``lo_n_closure`` and S_min in ``satisfaction``: ``_fold``
on the packed table, one shift a tuple.

``within_budget`` is the single enumeration guard: every refusal in the
package passes a count through it, and it raises ``BudgetExceededError``
carrying that count when the count exceeds the budget.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial, reduce
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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
    ``BudgetExceededError`` naming what was counted, a count past 10,000 bits as its power of two."""
    if count > budget:
        shown = count if count.bit_length() <= 10_000 else f"at least 2^{count.bit_length() - 1}"
        raise BudgetExceededError(f"{what}: {shown} exceeds budget {budget}", count)
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
def coordinate_images(m: int, size_a: int, size_b: int) -> tuple[tuple[tuple[int, ...], tuple, tuple], ...]:
    """Per permutation q of the m coordinates but the identity, in ``itertools.permutations`` order, q with its byte
    tables over size_a^m and size_b^m, shared at equal sizes: table c moves bits 8c..8c+7 of R into {x read through q in R}."""
    def tables(q, size):  # the readings of q's inverse invert those of q
        bits = [1 << x for x in readings(tuple(sorted(range(m), key=q.__getitem__)), m, size)]
        return tuple(tuple(reduce(lambda table, bit: table + [t | bit for t in table], bits[c : c + 8], [0]))
                     for c in range(0, len(bits), 8))
    images = [(q, tables(q, size_a)) for q in itertools.islice(itertools.permutations(range(m)), 1, None)]
    return tuple((q, on_a, on_a if size_a == size_b else tables(q, size_b)) for q, on_a in images)


def permute_pairs(images: Sequence[tuple], pairs: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The antecedents and the consequents of the pairs (r, s) through each of the ``coordinate_images`` in turn,
    pair by pair: entry i * len(images) + j is pair i through image j.  A byte table moves a whole list at once."""
    def moved(tables, masks):
        return reduce(partial(map, operator.add), [map(table.__getitem__, map(operator.and_, map(
            operator.rshift, masks, itertools.repeat(8 * c)), itertools.repeat(255))) for c, table in enumerate(tables)])
    rs, ss = zip(*pairs) if pairs else ((), ())
    return tuple(list(itertools.chain.from_iterable(zip(*[moved(image[side], masks) for image in images])))
                 for side, masks in ((1, rs), (2, ss)))


@lru_cache(maxsize=32)
def orbit_antecedents(size: int, m: int, n: int) -> tuple[int, ...]:
    """One antecedent R over A^m of at most n tuples per S_m orbit, as its rank mask: R's j tuples are the
    columns of m sorted rows, ranks over A^j.  Each m-multiset of A^j with j distinct columns is listed
    once up to column order, as the least of its images."""
    out = []
    for j in range(n + 1):
        orders = [readings(order, j, size) for order in itertools.permutations(range(j))]
        digits = [readings((c,), j, size) for c in range(j)]
        for rows in itertools.combinations_with_replacement(range(size**j), m):
            columns = {tuple(map(digit.__getitem__, rows)) for digit in digits}
            if len(columns) == j and all(rows <= tuple(sorted(map(order.__getitem__, rows))) for order in orders):
                out.append(sum(1 << tuple_rank(column, size) for column in columns))
    return tuple(out)


@lru_cache(maxsize=32)
def burnside_orbit_counts(size: int, m: int, n: int) -> tuple[int, ...]:
    """Per k <= n, the S_m orbits of the k-subsets of A^m (|A| = size) by Burnside's lemma: the mean over S_m of the
    k-subsets a permutation fixes, the unions of its cycles on A^m, summed over the cycle types of S_m."""
    def cycle_types(rest, largest):  # the partitions of rest into parts of at most largest, largest first
        return [(part, *tail) for part in range(min(rest, largest), 0, -1) for tail in cycle_types(rest - part, part)] or [()]

    totals = [0] * (n + 1)
    for parts in cycle_types(m, m):
        fixed = [1] + [0] * n  # per k, the k-subsets of A^m that are unions of cycles, over lengths 1..l so far
        cycles = {}  # cycles on A^m by length l: the points fixed by sigma^l are those on cycles of length d | l
        for l in range(1, n + 1):
            cycles[l] = (size ** sum(math.gcd(p, l) for p in parts) - sum(d * c for d, c in cycles.items() if l % d == 0)) // l
            fixed = [sum(math.comb(cycles[l], j) * fixed[k - l * j] for j in range(k // l + 1)) for k in range(n + 1)]
        members = math.factorial(m) // math.prod(p ** parts.count(p) * math.factorial(parts.count(p)) for p in set(parts))
        totals = [t + members * f for t, f in zip(totals, fixed)]
    return tuple(t // math.factorial(m) for t in totals)


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
    def empty(cls, domain: DomainSpec, arity: int) -> "Relation":
        return cls(domain, arity, 0)

    @classmethod
    def full(cls, domain: DomainSpec, arity: int) -> "Relation":
        return cls(domain, arity, (1 << domain.size**arity) - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

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


@lru_cache(maxsize=64)
def canonical_constraint(kind: str, m: int, dom: DomainSpec, cod: DomainSpec) -> Constraint:
    """The distinguished constraints: equality, empty, trivial, all at arity m, cached since they are frozen."""
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
    points = dom.size**n  # past 2^20 points the power takes seconds, then terabytes: its lower bound 2^(2^20) stands in
    return cod.size**points if points <= 1 << 20 else min(cod.size, 2) ** (1 << 20)


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


def _fields(packed: int, count: int, size: int) -> list[int]:
    """The ``count`` fields of ``size`` bytes each of a packed int, lowest first."""
    data = packed.to_bytes(count * size, "little")
    if size in (1, 2, 4, 8) and sys.byteorder == "little":  # one array read
        return array("BHIQ"[size.bit_length() - 1], data).tolist()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _pack(values: list[int], size: int) -> int:
    """The inverse of ``_fields``: the values as fields of ``size`` bytes, the first lowest."""
    if size == 1:
        return int.from_bytes(bytes(values), "little")
    if size in (2, 4, 8) and sys.byteorder == "little":
        return int.from_bytes(array("HIQ"[size.bit_length() - 2], values), "little")
    return int.from_bytes(b"".join(map(int.to_bytes, values, itertools.repeat(size), itertools.repeat("little"))), "little")


@lru_cache(maxsize=32)
def _level_masks(count: int, size: int) -> tuple[tuple[int, int], ...]:
    """Per level i of a fold of ``count`` fields of ``size`` bytes: all ones in the fields r holding bit i, and in the others."""
    blocks = [bytes(size << i) + b"\xff" * (size << i) for i in range(count.bit_length() - 1)]  # 2^i fields without, 2^i with
    return tuple(tuple(int.from_bytes(b * (count >> i + 1), "little") for b in (block, block[::-1])) for i, block in enumerate(blocks))


def _fold(packed: int, count: int, size: int, op) -> int:
    """``subset_fold`` of the table packed as ``count`` fields of ``size`` bytes: level i shifts the whole table
    2^i fields up, which sets r - 2^i beside r, and ORs (or ANDs) it into the fields r holding bit i."""
    for i, (holding, others) in enumerate(_level_masks(count, size)):
        moved = packed << (8 * size << i)
        packed = packed | moved & holding if op is operator.or_ else packed & (moved | others)
    return packed


def subset_fold(table: list, op) -> list:
    """Fold ``table``, indexed by subset masks and of power-of-two length, in place: entry r becomes ``op``,
    ``operator.or_`` or ``operator.and_``, over the entries of every subset of r, by ``_fold`` on the entries
    packed as fields of the fewest whole bytes that hold the largest."""
    if op is not operator.or_ and op is not operator.and_:
        raise ValueError("subset_fold folds by operator.or_ or operator.and_")
    size = -(-max(table).bit_length() // 8) or 1
    table[:] = _fields(_fold(_pack(table, size), len(table), size, op), len(table), size)
    return table


def ranks_of_mask(mask: int) -> frozenset[int]:
    """The positions of the set bits of a non-negative mask.  A mask with
    fewer than one set bit per 64 positions is read one set bit at a time,
    any other by its binary digits."""
    if mask.bit_count() * 64 < mask.bit_length():
        ranks = []
        while mask:
            low = mask & -mask
            ranks.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(ranks)
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


@dataclass(frozen=True)
class ArityIndexed:
    """An arity-indexed collection over a common dom and cod.  Each arity has
    one form, fixed when the collection is built: a frozenset of integer keys,
    or a subclass's held form.  No read writes a form.

    A subclass fixes its member type, ``_member``, and what a key is: ``_key``
    keys one member, ``_check`` validates the keys given for one arity, and
    ``decode`` turns one key back into a member.  The constructor takes the keys
    of each arity as ``by_arity``; ``_of_members``, behind ``from_tables`` and
    ``from_constraints``, is the one door for decoded members.  A held form is
    turned into keys by ``_derive`` on every read of ``ranks``, counted by
    ``_count``, tested for one key by ``_holds`` and kept by ``|`` and ``-``
    where one side alone has the arity.  Empty arities are dropped and the
    arities kept sorted.  ``|``, ``-`` and ``issubset`` take a collection of
    the same type over the same domains.
    """

    dom: DomainSpec
    cod: DomainSpec
    by_arity: InitVar[Mapping[int, Iterable]]
    _forms: dict[int, object] = field(init=False, repr=False)

    def __post_init__(self, by_arity: Mapping[int, Iterable]) -> None:
        forms = {arity: frozenset(keys) for arity, keys in sorted(by_arity.items())}
        forms = {arity: keys for arity, keys in forms.items() if keys}
        for arity, keys in forms.items():
            self._check(arity, keys)
        object.__setattr__(self, "_forms", forms)

    @classmethod
    def _of_forms(cls, dom: DomainSpec, cod: DomainSpec, forms: Mapping[int, object]):
        """A collection of forms already checked for their arities; empty ones are dropped."""
        out = object.__new__(cls)
        for name, value in (("dom", dom), ("cod", cod), ("_forms", {n: f for n, f in sorted(forms.items()) if f})):
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def _of_members(cls, dom: DomainSpec, cod: DomainSpec, members: Iterable):
        """The collection of decoded members, each checked against dom and cod
        and keyed at its own arity."""
        keys: dict[int, set] = {}
        for x in members:
            if not isinstance(x, cls._member):
                raise TypeError(f"a {type(x).__name__} is not a {cls._member.__name__}")
            if (x.dom, x.cod) != (dom, cod):
                raise DomainMismatchError(f"{cls._member.__name__} over {x.dom.name!r}->{x.cod.name!r} "
                                          f"in a collection over {dom.name!r}->{cod.name!r}")
            keys.setdefault(x.arity, set()).add(cls._key(x))
        return cls._of_forms(dom, cod, {n: frozenset(k) for n, k in keys.items()})

    @classmethod
    def empty(cls, dom: DomainSpec, cod: DomainSpec):
        return cls(dom, cod, {})

    def arities(self) -> tuple[int, ...]:
        return tuple(self._forms)

    def ranks(self, arity: int) -> frozenset:
        """The keys of one arity, derived from a held form on every call."""
        form = self._forms.get(arity, frozenset())
        return form if type(form) is frozenset else self._derive(arity, form)

    def members(self, arity: int) -> frozenset:
        return frozenset(self.decode(arity, key) for key in self.ranks(arity))

    def sorted_keys(self) -> list[tuple[int, object]]:
        """(arity, key) of every member, by arity and then by key."""
        return [(n, key) for n in self.arities() for key in sorted(self.ranks(n))]

    def _sorted_members(self) -> list:
        """Every member, decoded, by arity and then by key."""
        return [self.decode(n, key) for n, key in self.sorted_keys()]

    def __len__(self) -> int:
        return sum(len(form) if type(form) is frozenset else self._count(n, form) for n, form in self._forms.items())

    def __contains__(self, member) -> bool:
        """Membership of a decoded member; any other object is not a member."""
        if not isinstance(member, self._member) or (member.dom, member.cod) != (self.dom, self.cod):
            return False
        form, key = self._forms.get(member.arity, frozenset()), self._key(member)
        return key in form if type(form) is frozenset else self._holds(form, key)

    def __eq__(self, other) -> bool:
        """Per arity, the forms where both sides hold it in one kind (each fixes its keys exactly), else the keys."""
        if type(other) is not type(self):
            return NotImplemented
        return (self.dom, self.cod, self.arities()) == (other.dom, other.cod, other.arities()) and all(
            form == other._forms[n] if type(form) is type(other._forms[n]) else self.ranks(n) == other.ranks(n)
            for n, form in self._forms.items())

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.arities()))

    def __repr__(self) -> str:
        keys = {n: self.ranks(n) for n in self.arities()}
        return f"{type(self).__name__}(dom={self.dom!r}, cod={self.cod!r}, by_arity={keys!r})"

    def _combine(self, other, op):
        """``op`` per arity of either collection (of the left one for ``-``):
        ``_combine_arity`` where both have it, else the one side's form as it is."""
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise DomainMismatchError("cannot combine collections over different domains")
        mine, theirs = self._forms, other._forms
        forms = {n: form for n, form in mine.items() if n not in theirs}
        if op is operator.or_:
            forms.update((n, form) for n, form in theirs.items() if n not in mine)
        forms.update((n, self._combine_arity(other, n, op)) for n in mine if n in theirs)
        return self._of_forms(self.dom, self.cod, forms)

    def _combine_arity(self, other, n: int, op):
        """``op`` of the keys of an arity both collections have."""
        return op(self.ranks(n), other.ranks(n))

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


class FunctionClass(ArityIndexed):
    """An arity-indexed collection of functions with common dom and cod.

    Each arity is held in the form that built it: the ranks of the member
    tables (see ``FunctionTable.rank``) from the constructor and
    ``from_tables``, or the bitmask over table ranks that the kernels produce
    from ``from_masks`` (see ``mask``).  ``ranks`` derives the ranks of a held
    mask and ``mask`` the mask of held ranks, on every call; ``len`` counts a
    mask's bits, ``in`` reads one of them, and ``|`` and ``-`` of two masks
    are a mask.  ``members`` and ``tables`` decode tables back for I/O and
    witnesses.
    """

    _member = FunctionTable
    _key = operator.methodcaller("rank")

    @classmethod
    def from_masks(cls, dom: DomainSpec, cod: DomainSpec, masks: Mapping[int, int]) -> "FunctionClass":
        """A class from per-arity bitmasks over table ranks (see ``mask``)."""
        for arity, mask in masks.items():
            if arity < 1 or mask < 0 or mask >> function_count(dom, cod, arity):
                raise ValueError(f"mask out of range for arity {arity}")
        # a mask in range holds valid ranks only, so the per-rank checks are skipped
        return cls._of_forms(dom, cod, masks)

    @classmethod
    def from_tables(cls, dom: DomainSpec, cod: DomainSpec, tables: Iterable[FunctionTable]) -> "FunctionClass":
        return cls._of_members(dom, cod, tables)

    def _check(self, arity: int, ranks: frozenset) -> None:
        if set(map(type, ranks)) != {int}:
            raise TypeError("class members must be table ranks; from_tables takes FunctionTables")
        if min(ranks) < 0 or max(ranks) >= self.cod.size ** self.dom.size**arity:  # exact past function_count's bound
            raise ValueError(f"table rank out of range for arity {arity}")

    def decode(self, arity: int, rank: int) -> FunctionTable:
        return FunctionTable.unrank(self.dom, self.cod, arity, rank)

    def _derive(self, arity: int, mask: int) -> frozenset[int]:
        return ranks_of_mask(mask)

    def _count(self, arity: int, mask: int) -> int:
        return mask.bit_count()

    def _holds(self, mask: int, rank: int) -> bool:
        return mask >> rank & 1 == 1

    def _combine_arity(self, other, n: int, op):
        """Two masks by OR or AND-NOT, which gives a mask."""
        left, right = self._forms[n], other._forms[n]
        if type(left) is int and type(right) is int:
            return left | right if op is operator.or_ else left & ~right
        return super()._combine_arity(other, n, op)

    def mask(self, arity: int) -> int:
        """The members of one arity as a bitmask over table ranks.

        Built from ranks, the mask has ``function_count(dom, cod, arity)``
        bits, so callers check that count against their budget first.
        """
        form = self._forms.get(arity, 0)
        return form if type(form) is int else mask_of_ranks(form, function_count(self.dom, self.cod, arity))

    def tables(self) -> list[FunctionTable]:
        return self._sorted_members()


class ConstraintSet(ArityIndexed):
    """An arity-indexed collection of constraints over a common A and B.

    Each arity is held in the form that built it: the ``(antecedent.bits,
    consequent.bits)`` pairs of its members from the constructor and
    ``from_constraints``, or, from ``from_floors``, the floor of each
    antecedent, which ``floors`` returns.  ``len`` sums 2^(|B|^m - |floor|)
    over the floors, ``in`` compares one floor, and ``-`` takes the right
    side's floors where it holds them.  ``generators`` reads either form as
    the pairs satisfaction and the cm seed need; ``members`` and
    ``constraints`` decode constraints back.
    """

    _member = Constraint
    _key = operator.attrgetter("antecedent.bits", "consequent.bits")

    @classmethod
    def from_constraints(cls, dom: DomainSpec, cod: DomainSpec, constraints: Iterable[Constraint]) -> "ConstraintSet":
        return cls._of_members(dom, cod, constraints)

    @classmethod
    def from_floors(cls, dom: DomainSpec, cod: DomainSpec, m: int, floors: Sequence[int]) -> "ConstraintSet":
        """The m-ary set of the (r, s) with s a superset of ``floors[r]``, the
        least consequent of antecedent r, held as its floors."""
        full = (1 << cod.size**m) - 1
        if len(floors) != 1 << dom.size**m or min(floors) < 0 or max(floors) > full:
            raise ValueError(f"floors out of range for arity {m}")
        return cls._of_forms(dom, cod, {m: tuple(floors)})  # every floor has supersets, so the arity is not empty

    def _check(self, arity: int, pairs: frozenset) -> None:
        if set(map(type, pairs)) != {tuple}:
            raise TypeError("set members must be bitmask pairs; from_constraints takes Constraints")
        a_limit, b_limit = 1 << self.dom.size**arity, 1 << self.cod.size**arity
        for r, s in pairs:
            if not (type(r) is int and type(s) is int and 0 <= r < a_limit and 0 <= s < b_limit):
                raise ValueError(f"bitmask pair {(r, s)} out of range for arity {arity}")

    def decode(self, arity: int, pair: tuple[int, int]) -> Constraint:
        return Constraint(Relation(self.dom, arity, pair[0]), Relation(self.cod, arity, pair[1]))

    def _derive(self, arity: int, floors: tuple[int, ...]) -> frozenset[tuple[int, int]]:
        full = (1 << self.cod.size**arity) - 1
        return frozenset((r, f | extra) for r, f in enumerate(floors) for extra in submasks(full & ~f))

    def _count(self, arity: int, floors: tuple[int, ...]) -> int:
        return sum(map((1 << self.cod.size**arity).__rshift__, map(int.bit_count, floors)))  # 2^(width - |floor|) each

    def _holds(self, floors: tuple[int, ...], pair: tuple[int, int]) -> bool:
        return not floors[pair[0]] & ~pair[1]

    def floors(self, arity: int) -> tuple[int, ...] | None:
        """The floors an arity is held as, or None where it is held as pairs."""
        form = self._forms.get(arity)
        return form if type(form) is tuple else None

    def generators(self, arity: int) -> Collection[tuple[int, int]]:
        """The (r, floor(r)) of an arity held as floors, else its pairs: members
        of which every member is a relaxation by a larger consequent."""
        floors = self.floors(arity)
        return list(enumerate(floors)) if floors else self.ranks(arity)

    def _combine_arity(self, other, n: int, op) -> frozenset[tuple[int, int]]:
        """``-`` by the right side's floors where it holds them: the (r, s) above
        the left floor of r, or the left pairs, that are not above the right one."""
        left, right = self.floors(n), other.floors(n)
        if right and op is operator.sub:
            if left:
                # the r whose right floor is not below the left one, flagged in one pass
                above = itertools.compress(range(len(left)), map(operator.and_, right, map(operator.invert, left)))
                return frozenset((r, left[r] | extra) for r in above
                                 for extra in submasks(~left[r] & (1 << self.cod.size**n) - 1) if right[r] & ~(left[r] | extra))
            return frozenset((r, s) for r, s in self.ranks(n) if right[r] & ~s)
        return super()._combine_arity(other, n, op)

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
