"""Paged KvCache allocator (PagedAttention-style, paper §5.4).

The allocator hands out fixed-size pages, each holding ``page_size`` tokens
of one request's K/V history. A request with sequence length ``S`` owns
``ceil(S / P)`` pages; the last page may be partially filled. Pages are
recycled through a free list, so after any sequence of alloc/free the pool
never fragments below page granularity — this is the property that lets
Punica admit a new request whenever ``free_pages`` suffices, regardless of
what ran before.
"""

from __future__ import annotations

from dataclasses import dataclass


def pages_needed(seq_len: int, page_size: int) -> int:
    """``ceil(seq_len / page_size)`` with validation."""
    if page_size <= 0:
        raise ValueError(f"page_size must be positive, got {page_size}")
    if seq_len < 0:
        raise ValueError(f"seq_len must be nonnegative, got {seq_len}")
    return -(-seq_len // page_size)


@dataclass(frozen=True)
class PageAllocatorStats:
    """Occupancy snapshot."""

    total_pages: int
    free_pages: int
    used_pages: int
    num_sequences: int
    allocated_tokens: int

    @property
    def utilization(self) -> float:
        """Fraction of pool pages currently owned by sequences."""
        return self.used_pages / self.total_pages if self.total_pages else 0.0


class PageAllocator:
    """Fixed-pool page allocator with per-sequence page lists."""

    def __init__(self, total_pages: int, page_size: int):
        if total_pages <= 0:
            raise ValueError(f"total_pages must be positive, got {total_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.total_pages = total_pages
        self.page_size = page_size
        self._free: list[int] = list(range(total_pages - 1, -1, -1))
        self._pages: dict[str, list[int]] = {}
        self._seq_len: dict[str, int] = {}

    # -- queries -------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.total_pages - len(self._free)

    def seq_len(self, seq_id: str) -> int:
        self._require(seq_id)
        return self._seq_len[seq_id]

    def pages_of(self, seq_id: str) -> list[int]:
        self._require(seq_id)
        return list(self._pages[seq_id])

    def __contains__(self, seq_id: str) -> bool:
        return seq_id in self._pages

    def can_allocate(self, seq_len: int) -> bool:
        """Whether a *new* sequence of ``seq_len`` tokens fits right now."""
        return pages_needed(seq_len, self.page_size) <= len(self._free)

    def can_append(self, seq_id: str, extra_tokens: int = 1) -> bool:
        """Whether ``extra_tokens`` more tokens fit for an existing sequence."""
        self._require(seq_id)
        cur = self._seq_len[seq_id]
        extra_pages = pages_needed(cur + extra_tokens, self.page_size) - len(
            self._pages[seq_id]
        )
        return extra_pages <= len(self._free)

    # -- mutations -----------------------------------------------------
    def allocate(self, seq_id: str, seq_len: int) -> list[int]:
        """Allocate pages for a new sequence of ``seq_len`` tokens."""
        if seq_id in self._pages:
            raise ValueError(f"sequence {seq_id!r} already allocated")
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        need = pages_needed(seq_len, self.page_size)
        if need > len(self._free):
            raise MemoryError(
                f"need {need} pages for {seq_id!r} but only {len(self._free)} free"
            )
        pages = [self._free.pop() for _ in range(need)]
        self._pages[seq_id] = pages
        self._seq_len[seq_id] = seq_len
        return list(pages)

    def append(self, seq_id: str, extra_tokens: int = 1) -> list[int]:
        """Grow a sequence; returns any newly allocated pages."""
        self._require(seq_id)
        if extra_tokens <= 0:
            raise ValueError(f"extra_tokens must be positive, got {extra_tokens}")
        new_len = self._seq_len[seq_id] + extra_tokens
        need = pages_needed(new_len, self.page_size) - len(self._pages[seq_id])
        if need > len(self._free):
            raise MemoryError(
                f"append to {seq_id!r} needs {need} pages but only {len(self._free)} free"
            )
        new_pages = [self._free.pop() for _ in range(need)]
        self._pages[seq_id].extend(new_pages)
        self._seq_len[seq_id] = new_len
        return new_pages

    def append_token(self, seq_id: str) -> "list[int]":
        """Single-token :meth:`append` specialization for the decode hot loop.

        Equivalent to ``append(seq_id, 1)`` but replaces the two
        ``pages_needed`` ceil-divisions with one modulo: a token needs a
        new page iff the current length fills its last page exactly.
        """
        pages = self._pages.get(seq_id)
        if pages is None:
            raise KeyError(f"unknown sequence {seq_id!r}")
        cur = self._seq_len[seq_id]
        self._seq_len[seq_id] = cur + 1
        if cur % self.page_size:
            return []
        if not self._free:
            self._seq_len[seq_id] = cur
            raise MemoryError(
                f"append to {seq_id!r} needs 1 pages but only 0 free"
            )
        page = self._free.pop()
        pages.append(page)
        return [page]

    def append_tokens(self, seq_ids) -> None:
        """Batched :meth:`append_token` for the steady decode lane.

        One token per sequence, no new-page lists returned. The caller
        guarantees every sequence exists and a free page per sequence is
        available (``free_pages >= len(seq_ids)``), so the per-call
        validation of :meth:`append_token` is hoisted out of the loop.
        """
        seq_len = self._seq_len
        pages = self._pages
        free = self._free
        page_size = self.page_size
        for sid in seq_ids:
            cur = seq_len[sid]
            seq_len[sid] = cur + 1
            if cur % page_size == 0:
                if not free:
                    seq_len[sid] = cur
                    raise MemoryError(
                        f"append to {sid!r} needs 1 pages but only 0 free"
                    )
                pages[sid].append(free.pop())

    def truncate(self, seq_id: str, new_len: int) -> int:
        """Shrink a sequence to ``new_len`` tokens; returns pages released.

        The speculative-decode rollback path: rejected draft tokens give
        their slots back, and any page left wholly past ``new_len``
        returns to the free list. Freed pages re-enter the LIFO free list
        newest-first (same discipline as :meth:`free`), so a subsequent
        append reacquires the very pages just released — allocator state
        after a reject/re-append cycle is indistinguishable from never
        having speculated.
        """
        self._require(seq_id)
        if new_len < 0:
            raise ValueError(f"new_len must be nonnegative, got {new_len}")
        cur = self._seq_len[seq_id]
        if new_len > cur:
            raise ValueError(
                f"cannot truncate {seq_id!r} from {cur} to {new_len} tokens"
            )
        keep = pages_needed(new_len, self.page_size)
        pages = self._pages[seq_id]
        released = pages[keep:]
        del pages[keep:]
        self._seq_len[seq_id] = new_len
        self._free.extend(reversed(released))
        return len(released)

    def free(self, seq_id: str) -> int:
        """Release a sequence's pages; returns how many were freed."""
        self._require(seq_id)
        pages = self._pages.pop(seq_id)
        del self._seq_len[seq_id]
        self._free.extend(reversed(pages))
        return len(pages)

    def export_sequence(self, seq_id: str) -> int:
        """Release a sequence for handoff to another allocator.

        Returns the sequence length so the receiving allocator can
        :meth:`import_sequence` it. Physically identical to :meth:`free`
        (the pages are recycled locally; the bytes travel over the
        interconnect), but named so call sites distinguish "KV moved
        elsewhere" from "KV discarded".
        """
        self._require(seq_id)
        seq_len = self._seq_len[seq_id]
        self.free(seq_id)
        return seq_len

    def import_sequence(self, seq_id: str, seq_len: int) -> list[int]:
        """Admit a sequence exported from another allocator.

        Allocates ``ceil(seq_len / P)`` local pages to receive the copied
        KV history; the partially-filled last page keeps growing through
        the normal :meth:`append_token` path afterwards.
        """
        return self.allocate(seq_id, seq_len)

    # -- stats ---------------------------------------------------------
    def stats(self) -> PageAllocatorStats:
        return PageAllocatorStats(
            total_pages=self.total_pages,
            free_pages=len(self._free),
            used_pages=self.used_pages,
            num_sequences=len(self._pages),
            allocated_tokens=sum(self._seq_len.values()),
        )

    def internal_fragmentation(self) -> float:
        """Unused token slots inside owned pages, as a fraction of owned slots.

        Bounded by ``(P-1)/P`` per request — the advantage over contiguous
        preallocation the paper borrows from PagedAttention.
        """
        owned_slots = self.used_pages * self.page_size
        if owned_slots == 0:
            return 0.0
        used_slots = sum(self._seq_len.values())
        return 1.0 - used_slots / owned_slots

    def _require(self, seq_id: str) -> None:
        if seq_id not in self._pages:
            raise KeyError(f"unknown sequence {seq_id!r}")
