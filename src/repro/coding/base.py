"""Common interface for block codes over binary words.

All codes operate on non-negative Python integers interpreted as bit vectors,
least-significant bit first.  A codeword for a ``(n, k)`` code occupies ``n``
bits: by convention the ``k`` data bits are the low bits and the ``n - k``
check bits are the high bits (systematic layout), although individual codes
may document a different layout as long as ``extract_data(encode(d)) == d``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DecodeStatus(enum.Enum):
    """Outcome of decoding a (possibly corrupted) codeword."""

    CLEAN = "clean"  # no error detected
    CORRECTED = "corrected"  # error detected and corrected
    DETECTED = "detected"  # error detected but not correctable (DUE)


@dataclass(frozen=True)
class DecodeResult:
    """Result of :meth:`Code.decode`.

    ``data`` is the decoder's best-effort data word; it is only trustworthy
    when ``status`` is ``CLEAN`` or ``CORRECTED``.
    """

    data: int
    status: DecodeStatus

    @property
    def ok(self) -> bool:
        """True when the data word can be trusted."""
        return self.status is not DecodeStatus.DETECTED


class Code:
    """A binary block code mapping ``k`` data bits to ``n`` codeword bits.

    Subclasses must set :attr:`n`, :attr:`k`, :attr:`guaranteed_detect`
    (errors detected when the code is used detection-only, as Penny does) and
    :attr:`guaranteed_correct` (errors corrected when used as ECC).
    """

    n: int
    k: int
    guaranteed_detect: int
    guaranteed_correct: int

    @property
    def check_bits(self) -> int:
        """Number of redundant bits added to each data word."""
        return self.n - self.k

    def encode(self, data: int) -> int:
        """Encode ``data`` (must fit in ``k`` bits) into an ``n``-bit word."""
        raise NotImplementedError

    def decode(self, codeword: int) -> DecodeResult:
        """Decode ``codeword``, correcting errors if the code is able to."""
        raise NotImplementedError

    def check(self, codeword: int) -> bool:
        """Return True when an error is *detected* in ``codeword``.

        This is the only operation Penny's register file performs on a read;
        correction is delegated to idempotent re-execution.
        """
        raise NotImplementedError

    def extract_data(self, codeword: int) -> int:
        """Return the (unchecked) data bits of ``codeword``."""
        return codeword & ((1 << self.k) - 1)

    def _require_data_range(self, data: int) -> None:
        if data < 0 or data >> self.k:
            raise ValueError(
                f"data word {data:#x} does not fit in {self.k} bits"
            )

    def _require_codeword_range(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self.n:
            raise ValueError(
                f"codeword {codeword:#x} does not fit in {self.n} bits"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


def popcount(x: int) -> int:
    """Number of set bits in ``x`` (x >= 0)."""
    return bin(x).count("1")


def flip_bits(word: int, positions) -> int:
    """Return ``word`` with the given bit positions flipped."""
    for pos in positions:
        word ^= 1 << pos
    return word
