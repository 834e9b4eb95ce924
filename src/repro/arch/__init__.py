"""soNUMA + Manycore NI architectural substrate (paper §3–§5)."""

from .backend import NIBackend
from .buffers import (
    COUNTER_BLOCK_BYTES,
    DynamicSlotAllocator,
    MessagingDomain,
    ReceiveBuffer,
    ReceiveSlot,
    SEND_SLOT_BYTES,
)
from .chip import Chip, ChipStats
from .config import ChipConfig, DEFAULT_CONFIG, cycles_to_ns
from .cpu import Core, CoreProgram
from .frontend import NIFrontend
from .interference import InterferenceModel, PeriodicStragglers, RandomStalls
from .mesh import Mesh
from .onesided import OneSidedCompletion, OneSidedEngine
from .packets import OneSidedWrite, SendMessage
from .protocol import SendFactory, make_send
from .qp import QueuePair

__all__ = [
    "Chip",
    "ChipStats",
    "ChipConfig",
    "DEFAULT_CONFIG",
    "cycles_to_ns",
    "Mesh",
    "OneSidedEngine",
    "OneSidedCompletion",
    "Core",
    "CoreProgram",
    "NIFrontend",
    "InterferenceModel",
    "PeriodicStragglers",
    "RandomStalls",
    "NIBackend",
    "QueuePair",
    "SendMessage",
    "OneSidedWrite",
    "SendFactory",
    "make_send",
    "MessagingDomain",
    "ReceiveBuffer",
    "ReceiveSlot",
    "SEND_SLOT_BYTES",
    "DynamicSlotAllocator",
    "COUNTER_BLOCK_BYTES",
]
