"""Core value types of the PTX-subset IR: dtypes, memory spaces, operands."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class DType(enum.Enum):
    """Register data types.  All non-predicate registers are 32 bits wide;
    predicates are modelled as 32-bit registers holding 0 or 1 so the whole
    register file is uniformly parity-protectable."""

    U32 = "u32"
    S32 = "s32"
    F32 = "f32"
    PRED = "pred"

    @property
    def is_float(self) -> bool:
        return self is DType.F32

    @property
    def is_signed(self) -> bool:
        return self is DType.S32


class MemSpace(enum.Enum):
    """PTX state spaces our subset supports.

    ``PARAM`` and ``CONST`` are read-only during kernel execution, a fact
    Penny's checkpoint pruning exploits (values reloadable at recovery time
    are "safe" PDDG terminals).  ``SHARED`` and ``GLOBAL`` double as
    checkpoint storage since GPUs already protect them with ECC.
    """

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"
    CONST = "const"
    PARAM = "param"

    @property
    def read_only(self) -> bool:
        return self in (MemSpace.CONST, MemSpace.PARAM)


@dataclass(frozen=True, eq=False)
class Reg:
    """A register operand.  ``name`` is unique within a kernel (virtual
    before allocation, physical — ``%r0`` ... — after).

    Identity is the *name* alone: the declared dtype is advisory (the same
    physical register may be read as ``u32`` in one instruction and ``s32``
    in another, as in real PTX), and dataflow analyses must see one register
    either way.
    """

    name: str
    dtype: DType = DType.U32

    def __eq__(self, other) -> bool:
        return isinstance(other, Reg) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Reg", self.name))

    def __str__(self) -> str:
        return self.name

    def with_name(self, name: str) -> "Reg":
        return Reg(name, self.dtype)


@dataclass(frozen=True)
class Imm:
    """An immediate operand.  ``value`` is an int for integer dtypes and a
    float for ``F32``."""

    value: Union[int, float]
    dtype: DType = DType.U32

    def __str__(self) -> str:
        if self.dtype.is_float:
            return repr(float(self.value))
        return str(int(self.value))


#: Special (read-only, hardware-provided) registers our subset exposes.
SPECIAL_REGISTERS = (
    "%tid.x",
    "%tid.y",
    "%ntid.x",
    "%ntid.y",
    "%ctaid.x",
    "%ctaid.y",
    "%nctaid.x",
    "%nctaid.y",
)


@dataclass(frozen=True)
class Special:
    """A special register source (thread / block indices and extents).

    Special registers are hardware-generated on read, so they are always
    error-free and make safe PDDG terminals for checkpoint pruning.
    """

    name: str

    def __post_init__(self):
        if self.name not in SPECIAL_REGISTERS:
            raise ValueError(f"unknown special register {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SymRef:
    """A reference to a named buffer (kernel parameter, shared array,
    constant bank).  Used as a ``mov`` source to materialize the buffer's
    base address, or directly as a load/store base.  The simulator resolves
    symbols to concrete addresses at launch time."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SrcLoc:
    """A source span in the PTX-subset text an instruction was parsed from.

    ``line`` and ``col`` are 1-based; ``end_col`` is the column of the last
    character (inclusive), so carets can underline the whole instruction.
    Instructions built programmatically (builder, passes) carry no location.
    """

    line: int
    col: int = 1
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


#: Any value-producing operand an instruction may read.
Operand = Union[Reg, Imm, Special, SymRef]
