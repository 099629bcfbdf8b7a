"""Simulated GPU memory spaces.

All spaces are word-addressed stores of 32-bit values (our IR only issues
4-byte-aligned accesses).  GPU memories are SECDED-ECC-protected (the
paper's premise), which the campaign engine models explicitly rather than
assuming fault-free storage: a single flipped bit in a word is corrected
in place (invisible to the program), a double flip is *detected but
uncorrectable* — the word is poisoned and the next load raises
:class:`EccUncorrectableError` — and triple-and-wider upsets can escape
the code entirely and silently corrupt the stored pattern.  Rewriting a
word re-encodes it, scrubbing any pending poison (exactly what a
checkpoint overwrite does to a struck slot).  Values are stored as raw
32-bit patterns; interpretation (int vs float) happens in the executor.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

_MASK32 = 0xFFFFFFFF


class MemoryError32(RuntimeError):
    """Unaligned or out-of-space access."""


class EccUncorrectableError(MemoryError32):
    """A load touched a word whose ECC reported a detected-uncorrectable
    error (the memory-side escalation path of SECDED's correct-or-escalate
    contract)."""

    def __init__(self, store_name: str, addr: int):
        super().__init__(
            f"ECC uncorrectable error at {addr:#x} in {store_name}"
        )
        self.addr = addr


class WordStore:
    """A sparse word-addressed memory with a bump allocator."""

    def __init__(self, name: str, size_bytes: int = 1 << 24):
        self.name = name
        self.size_bytes = size_bytes
        self.words: Dict[int, int] = {}
        self._alloc_ptr = 0
        self.reads = 0
        self.writes = 0
        #: word indices whose ECC state is detected-uncorrectable
        self.poisoned: Set[int] = set()
        self.ecc_corrections = 0

    def _check(self, addr: int) -> int:
        if addr % 4 != 0:
            raise MemoryError32(
                f"unaligned 4-byte access at {addr:#x} in {self.name}"
            )
        if addr < 0 or addr + 4 > self.size_bytes:
            raise MemoryError32(
                f"address {addr:#x} out of bounds for {self.name}"
            )
        return addr // 4

    def load(self, addr: int) -> int:
        self.reads += 1
        idx = self._check(addr)
        if idx in self.poisoned:
            raise EccUncorrectableError(self.name, addr)
        return self.words.get(idx, 0)

    def store(self, addr: int, value: int) -> None:
        self.writes += 1
        idx = self._check(addr)
        # A write re-encodes the word, clearing any uncorrectable state.
        self.poisoned.discard(idx)
        self.words[idx] = value & _MASK32

    # -- ECC fault model (campaign engine) -----------------------------------------

    def ecc_correct(self, addr: int) -> None:
        """A single-bit upset struck this word: SECDED corrects it in
        place.  Only the correction counter moves — the program never
        observes anything."""
        self._check(addr)
        self.ecc_corrections += 1

    def poison(self, addr: int) -> None:
        """A double-bit upset struck this word: detected, uncorrectable.
        The next load raises :class:`EccUncorrectableError`; a store
        scrubs the poison (rewrite re-encodes)."""
        self.poisoned.add(self._check(addr))

    def corrupt(self, addr: int, xor_mask: int) -> None:
        """A ≥3-bit upset escaped SECDED (possible miscorrection): the
        stored pattern silently changes."""
        idx = self._check(addr)
        self.words[idx] = (self.words.get(idx, 0) ^ xor_mask) & _MASK32

    def allocate(self, num_bytes: int, align: int = 256) -> int:
        """Reserve a region; returns its base address."""
        base = (self._alloc_ptr + align - 1) // align * align
        if base + num_bytes > self.size_bytes:
            raise MemoryError32(f"{self.name} exhausted")
        self._alloc_ptr = base + num_bytes
        return base

    def write_block(self, addr: int, values: Iterable[int]) -> None:
        for i, v in enumerate(values):
            self.store(addr + 4 * i, int(v))

    def read_block(self, addr: int, count: int) -> List[int]:
        return [self.load(addr + 4 * i) for i in range(count)]

    def clone(self) -> "WordStore":
        """An independent copy: words, poison set, access counters and
        allocator state."""
        twin = copy.copy(self)
        twin.words = dict(self.words)
        twin.poisoned = set(self.poisoned)
        return twin


@dataclass
class MemoryImage:
    """All memory state of one kernel launch.

    ``global_mem`` and ``const_mem`` are launch-wide; ``shared`` is per
    thread block and ``local`` per thread (created on demand by the
    executor).  ``params`` maps kernel parameter names to raw values.
    """

    global_mem: WordStore = field(default_factory=lambda: WordStore("global"))
    const_mem: WordStore = field(default_factory=lambda: WordStore("const"))
    params: Dict[str, int] = field(default_factory=dict)
    #: the launch's global checkpoint area (base address, size in words),
    #: reserved by the launch prologue
    ckpt_global_base: int = 0
    ckpt_global_words: int = 0

    def alloc_global(self, num_words: int) -> int:
        return self.global_mem.allocate(num_words * 4)

    def set_param(self, name: str, value: int) -> None:
        self.params[name] = value & _MASK32

    def upload(self, addr: int, values: Iterable[int]) -> None:
        self.global_mem.write_block(addr, values)

    def download(self, addr: int, count: int) -> List[int]:
        return self.global_mem.read_block(addr, count)

    def snapshot_global(self) -> Dict[int, int]:
        return dict(self.global_mem.words)

    def clone(self) -> "MemoryImage":
        """An independent copy of every launch-wide memory state."""
        return dataclasses.replace(
            self,
            global_mem=self.global_mem.clone(),
            const_mem=self.const_mem.clone(),
            params=dict(self.params),
        )

    def same_contents(self, other: "MemoryImage") -> bool:
        """Do global and const memory hold the same words and the same
        poisoned (ECC-uncorrectable) words as ``other``'s?  Access
        counters do not count."""
        return all(
            mine.words == theirs.words and mine.poisoned == theirs.poisoned
            for mine, theirs in (
                (self.global_mem, other.global_mem),
                (self.const_mem, other.const_mem),
            )
        )
