"""soNUMA + Manycore NI architectural substrate (paper §3–§5)."""

from .backend import NIBackend
from .buffers import (
    COUNTER_BLOCK_BYTES,
    DynamicSlotAllocator,
    MessagingDomain,
    ReceiveBuffer,
    ReceiveSlot,
    SEND_SLOT_BYTES,
    SendBuffer,
    SendSlot,
)
from .chip import Chip, ChipStats
from .config import ChipConfig, DEFAULT_CONFIG, cycles_to_ns
from .cpu import Core, CoreProgram
from .frontend import NIFrontend
from .interference import InterferenceModel, PeriodicStragglers, RandomStalls
from .mesh import Mesh
from .onesided import OneSidedCompletion, OneSidedEngine
from .packets import OneSidedWrite, Replenish, SendMessage
from .protocol import SendFactory, make_replenish, make_send
from .qp import CompletionQueueEntry, QueuePair, WorkQueueEntry

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
    "WorkQueueEntry",
    "CompletionQueueEntry",
    "SendMessage",
    "Replenish",
    "OneSidedWrite",
    "SendFactory",
    "make_send",
    "make_replenish",
    "MessagingDomain",
    "SendBuffer",
    "ReceiveBuffer",
    "SendSlot",
    "ReceiveSlot",
    "SEND_SLOT_BYTES",
    "DynamicSlotAllocator",
    "COUNTER_BLOCK_BYTES",
]
