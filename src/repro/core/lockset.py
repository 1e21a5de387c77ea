"""Locksets: the central data structure of the Goldilocks algorithm.

A lockset ``LS(o, d)`` is a set drawn from
``(Addr × Volatile) ∪ (Addr × Data) ∪ Tid ∪ {TL}`` -- thread ids, monitor
locks, volatile variables, data variables, and the transaction lock.  The
paper's reading of a lockset (Section 4):

* empty: ``(o, d)`` is fresh, any access is race-free;
* contains thread ``t``: ``t`` is an *owner*, its accesses are race-free;
* contains lock ``(o', l)``: acquiring that lock makes a thread an owner;
* contains volatile ``(o', v)``: reading it makes a thread an owner;
* contains ``TL``: the last access was transactional, so another
  transactional access is race-free;
* contains data variable ``(o', d')``: accessing it *inside a transaction*
  makes a thread an owner.

Unlike Eraser-style locksets, these sets *grow* as synchronization happens,
and shrink to a singleton only at accesses.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from .actions import (
    TL,
    DataVar,
    LocksetElement,
    LockVar,
    Tid,
    VolatileVar,
    element_sort_key,
)


class Lockset:
    """A mutable lockset with the update vocabulary of Figure 5.

    Thin wrapper over a ``set`` that adds domain-specific queries and a
    deterministic string rendering (used by the Figure 6/7 reproductions).
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[LocksetElement] = ()):
        self.elements: Set[LocksetElement] = set(elements)

    # -- basic set protocol -------------------------------------------------

    def __contains__(self, element: LocksetElement) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator[LocksetElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Lockset):
            return self.elements == other.elements
        if isinstance(other, (set, frozenset)):
            return self.elements == other
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            repr(e) for e in sorted(self.elements, key=element_sort_key)
        )
        return "{" + inner + "}"

    def copy(self) -> "Lockset":
        return Lockset(self.elements)

    # -- updates used by the rules of Figure 5 ------------------------------

    def add(self, element: LocksetElement) -> None:
        """Add one element (rules 2-7: grow on synchronization)."""
        self.elements.add(element)

    def update(self, elements: Iterable[LocksetElement]) -> None:
        """Add many elements (rule 9: add ``R ∪ W``)."""
        self.elements.update(elements)

    def reset(self, elements: Iterable[LocksetElement]) -> None:
        """Shrink to exactly ``elements`` (rules 1 and 9: after an access)."""
        self.elements = set(elements)

    def clear(self) -> None:
        """Empty the lockset (rule 8: allocation makes the variable fresh)."""
        self.elements.clear()

    def intersects(self, others: AbstractSet[LocksetElement]) -> bool:
        """True iff this lockset shares an element with ``others``."""
        if len(self.elements) > len(others):
            return any(e in self.elements for e in others)
        return any(e in others for e in self.elements)

    # -- domain queries ------------------------------------------------------

    def owns(self, tid: Tid) -> bool:
        """True iff thread ``tid`` is currently an owner of the variable."""
        return tid in self.elements

    def transactional(self) -> bool:
        """True iff the transaction lock ``TL`` is present."""
        return TL in self.elements

    def any_lock(self) -> Optional[LockVar]:
        """Some monitor lock in the set, if any (used by the *alock* short circuit).

        The paper stores "a random element of ``LS(o, d)``... held by the
        current thread"; any deterministic choice is equally valid, so we
        return the first lock in sorted order for reproducibility.
        """
        locks = [e for e in self.elements if isinstance(e, LockVar)]
        if not locks:
            return None
        return min(locks, key=element_sort_key)

    def threads(self) -> Set[Tid]:
        """All thread ids in the set (the current owners)."""
        return {e for e in self.elements if isinstance(e, Tid)}

    def volatiles(self) -> Set[VolatileVar]:
        """All volatile variables in the set."""
        return {e for e in self.elements if isinstance(e, VolatileVar)}

    def data_vars(self) -> Set[DataVar]:
        """All data variables in the set (placed there by transaction commits)."""
        return {e for e in self.elements if isinstance(e, DataVar)}


# ---------------------------------------------------------------------------
# Integer-encoded locksets (the encoded kernel's representation)
# ---------------------------------------------------------------------------
#
# The encoded kernel (:mod:`repro.core.kernel`) never touches
# ``LocksetElement`` objects on its hot path.  An :class:`Interner` maps
# every element to a dense small int once, at the moment the element first
# appears in the execution; locksets then become either
#
# * an arbitrary-precision **int bitmask** (bit ``i`` set <=> element ``i``
#   present) while every member id is below :data:`BITSET_CUTOFF`, or
# * a **frozenset of ids** once any member's id crosses the cutoff (huge
#   executions with thousands of distinct threads/locks), so bit operations
#   never have to shift astronomically wide integers.
#
# Both representations are immutable values, which is what makes the
# kernel's shared-segment memo sound: an advanced lockset can be handed to
# several ``Info`` records without aliasing hazards.

#: ids below this bound live in int bitmasks; at or above it, locksets
#: spill into frozensets of ids.  512 bits is a few machine words -- cheap
#: to copy, far beyond the element count of any trace in the repo.
BITSET_CUTOFF = 512

#: the transaction lock's interned id (pinned: ``TL`` is interned first)
TL_ID = 0

#: an encoded lockset: int bitmask or frozenset of interned ids
IntLockset = Union[int, FrozenSet[int]]


class Interner:
    """Bidirectional ``LocksetElement`` <-> dense-int mapping.

    Ids are assigned in order of first appearance and never reused, so they
    are stable across a detector's lifetime and through checkpoints.  ``TL``
    is always id :data:`TL_ID` so the kernel can test transactionality with
    one bit probe.
    """

    __slots__ = ("_ids", "_elements")

    def __init__(self) -> None:
        self._elements: List[LocksetElement] = [TL]
        self._ids: Dict[LocksetElement, int] = {TL: TL_ID}

    def intern(self, element: LocksetElement) -> int:
        """The id of ``element``, assigning a fresh one on first sight."""
        eid = self._ids.get(element)
        if eid is None:
            eid = len(self._elements)
            self._ids[element] = eid
            self._elements.append(element)
        return eid

    def intern_all(self, elements: Iterable[LocksetElement]) -> List[int]:
        return [self.intern(e) for e in elements]

    def resolve(self, eid: int) -> LocksetElement:
        """The element behind an id (for reports, debugging, and decoding)."""
        return self._elements[eid]

    def elements_since(self, start: int) -> List[LocksetElement]:
        """Elements with ids >= ``start``, in id order (frame deltas)."""
        return self._elements[start:]

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: LocksetElement) -> bool:
        return element in self._ids

    # The element list is the canonical state; the dict is derived.  Keeping
    # it out of the pickle both shrinks checkpoints and makes the blob
    # deterministic (dict iteration order equals list order by construction).
    def __getstate__(self) -> dict:
        return {"elements": self._elements}

    def __setstate__(self, state: dict) -> None:
        self._elements = state["elements"]
        self._ids = {e: i for i, e in enumerate(self._elements)}

    def __repr__(self) -> str:
        return f"<Interner {len(self._elements)} elements>"


def ls_make(ids: Iterable[int], cutoff: int = BITSET_CUTOFF) -> IntLockset:
    """Encode a collection of ids as a bitmask (or frozenset past the cutoff)."""
    mask = 0
    big = None
    for eid in ids:
        if big is not None:
            big.add(eid)
        elif eid < cutoff:
            mask |= 1 << eid
        else:
            big = set(_mask_ids(mask))
            big.add(eid)
    return frozenset(big) if big is not None else mask


def ls_add(ls: IntLockset, eid: int, cutoff: int = BITSET_CUTOFF) -> IntLockset:
    """``ls ∪ {eid}`` in whichever representation fits."""
    if type(ls) is int:
        if eid < cutoff:
            return ls | (1 << eid)
        return frozenset(_mask_ids(ls)) | {eid}
    return ls | {eid}


def ls_has(ls: IntLockset, eid: int) -> bool:
    """True iff element ``eid`` is in the lockset."""
    if type(ls) is int:
        return (ls >> eid) & 1 == 1
    return eid in ls


def ls_union(ls: IntLockset, other: IntLockset) -> IntLockset:
    """``ls ∪ other`` for any mix of representations."""
    if type(ls) is int and type(other) is int:
        return ls | other
    left = _as_frozenset(ls)
    right = _as_frozenset(other)
    return left | right


def ls_intersects(ls: IntLockset, other: IntLockset) -> bool:
    """True iff the two locksets share an element."""
    if type(ls) is int and type(other) is int:
        return (ls & other) != 0
    left = _as_frozenset(ls)
    right = _as_frozenset(other)
    return not left.isdisjoint(right)


def ls_ids(ls: IntLockset) -> Tuple[int, ...]:
    """The member ids, sorted (canonical order for checkpoints and tests)."""
    if type(ls) is int:
        return tuple(_mask_ids(ls))
    return tuple(sorted(ls))


def ls_pack(ls: IntLockset) -> Union[int, Tuple[int, ...]]:
    """Canonical picklable form: the int itself, or a sorted id tuple.

    Frozensets pickle in iteration order, which depends on their construction
    history; checkpoints that must be byte-identical after a round trip store
    sorted tuples instead.
    """
    if type(ls) is int:
        return ls
    return tuple(sorted(ls))


def ls_unpack(packed: Union[int, Tuple[int, ...]]) -> IntLockset:
    """Inverse of :func:`ls_pack`."""
    if type(packed) is int:
        return packed
    return frozenset(packed)


def ls_mask(ls: IntLockset) -> int:
    """The unbounded id bitmask of a lockset (the inverse of :func:`ls_from_mask`)."""
    if type(ls) is int:
        return ls
    mask = 0
    for eid in ls:
        mask |= 1 << eid
    return mask


def ls_from_mask(mask: int) -> IntLockset:
    """The canonical lockset for an unbounded bitmask of ids.

    The mask itself while every id is below :data:`BITSET_CUTOFF`, else a
    frozenset -- the representation :func:`ls_add` reaches for the same
    members.
    """
    if mask >> BITSET_CUTOFF == 0:
        return mask
    return frozenset(_mask_ids(mask))


def ls_decode(ls: IntLockset, interner: Interner) -> Set[LocksetElement]:
    """Back to a plain element set (for parity tests and diagnostics)."""
    return {interner.resolve(eid) for eid in ls_ids(ls)}


def _mask_ids(mask: int) -> Iterator[int]:
    """Ids of the set bits of ``mask``, ascending."""
    eid = 0
    while mask:
        tail = mask & -mask
        eid = tail.bit_length() - 1
        yield eid
        mask ^= tail


def _as_frozenset(ls: IntLockset) -> FrozenSet[int]:
    if type(ls) is int:
        return frozenset(_mask_ids(ls))
    return ls
