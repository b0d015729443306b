"""Register file model.

The generator reserves a handful of registers for bookkeeping (Fig. 3 of
the paper): ``r9`` as the block loop counter, ``r10`` as the data-array
base address, ``r11`` for pointer chasing, and ``r8`` for the branch bit
mask. The remaining general-purpose and SIMD registers are the pool Ditto
assigns from when cloning data-dependency distances (§4.4.6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.util.errors import ConfigurationError


class RegisterClass(enum.Enum):
    """Architectural register classes the paper's operand analysis uses."""

    GPR = "gpr"
    XMM = "xmm"
    X87 = "x87"
    FLAGS = "flags"


@dataclass(frozen=True)
class Register:
    """A single architectural register."""

    name: str
    reg_class: RegisterClass
    width_bits: int

    def __str__(self) -> str:
        return self.name


def _gprs() -> List[Register]:
    names = [
        "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    ]
    return [Register(name, RegisterClass.GPR, 64) for name in names]


def _xmms() -> List[Register]:
    return [Register(f"xmm{i}", RegisterClass.XMM, 128) for i in range(16)]


def _x87s() -> List[Register]:
    return [Register(f"st{i}", RegisterClass.X87, 80) for i in range(8)]


#: Registers Ditto's code generator reserves (Fig. 3): they never enter the
#: dependency-assignment pool.
RESERVED_GPR_NAMES: Tuple[str, ...] = ("rsp", "rbp", "r8", "r9", "r10", "r11")


class RegisterFile:
    """The full register file plus the generator's free/reserved split."""

    def __init__(self, reserved_names: Tuple[str, ...] = RESERVED_GPR_NAMES) -> None:
        self.gprs = _gprs()
        self.xmms = _xmms()
        self.x87s = _x87s()
        self.flags = Register("rflags", RegisterClass.FLAGS, 64)
        known = {reg.name for reg in self.gprs}
        for name in reserved_names:
            if name not in known:
                raise ConfigurationError(f"unknown reserved register {name!r}")
        self.reserved_names = tuple(reserved_names)

    def all_registers(self) -> List[Register]:
        """All architectural registers, GPRs first."""
        return [*self.gprs, *self.xmms, *self.x87s, self.flags]

    def by_name(self, name: str) -> Register:
        """Look a register up by name."""
        for reg in self.all_registers():
            if reg.name == name:
                return reg
        raise ConfigurationError(f"unknown register {name!r}")

    def free_gprs(self) -> List[Register]:
        """GPRs available to the dependency assigner."""
        return [reg for reg in self.gprs if reg.name not in self.reserved_names]

    def free_xmms(self) -> List[Register]:
        """XMM registers available to the dependency assigner."""
        return list(self.xmms)
