"""Register allocation on PTX (CRAT stand-in).

The paper performs register allocation directly on PTX code (as the CRAT
tool does) so that Penny's transformations see physical register names and
so that register pressure — including the pressure added by Penny's
renaming-based overwrite prevention — translates into occupancy effects.

:func:`allocate` implements linear-scan allocation with spilling to local
memory; :func:`count_registers` reruns the allocator in counting mode to
obtain the physical register demand of a transformed kernel (the quantity
the occupancy calculator consumes).  Each interval, in start order, takes
the first free index, which is the smallest one, so ``num_regs`` is the
interval graph's clique number (the most intervals sharing a point),
capped at the budget.
"""

from repro.regalloc.allocator import (
    AllocationResult,
    allocate,
    count_registers,
)

__all__ = ["AllocationResult", "allocate", "count_registers"]
