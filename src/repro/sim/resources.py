"""Shared-resource primitives built on the event kernel.

Three primitives cover every synchronization pattern in the models:

* :class:`Store` — an (optionally bounded) FIFO buffer of items with
  blocking ``get``/``put`` events (a queue pair's WQ is one).
* :class:`PriorityStore` — a Store that hands out the smallest item
  first; used where ordering matters (e.g. priority dispatch ablation).
* :class:`Resource` — ``capacity`` identical slots with FIFO waiters;
  the MCS-lock contention model is a ``Resource(capacity=1)``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generic, List, Optional, TypeVar

from .engine import Environment
from .events import Event

__all__ = ["Store", "PriorityStore", "Resource", "Request"]

T = TypeVar("T")


class StorePut(Event):
    """Event representing a pending ``put``; fires when the item is stored."""

    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self._store = store

    def _abandon(self) -> None:
        """Withdraw this pending put (the waiter was interrupted)."""
        try:
            self._store._putters.remove(self)
        except ValueError:
            pass


class StoreGet(Event):
    """Event representing a pending ``get``; fires with the item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self._store = store

    def _abandon(self) -> None:
        """Withdraw this pending get (the waiter was interrupted).

        Without this, a later put would match the orphaned get and the
        item would vanish — no live process would ever receive it.
        """
        try:
            self._store._getters.remove(self)
        except ValueError:
            pass


class Store(Generic[T]):
    """A FIFO buffer of items with blocking ``put``/``get`` events.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Maximum number of stored items; ``None`` means unbounded.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[T]:
        """Snapshot of currently stored items (FIFO order)."""
        return list(self._items)

    @property
    def waiting_getters(self) -> int:
        """Number of pending ``get`` requests."""
        return len(self._getters)

    @property
    def waiting_putters(self) -> int:
        """Number of pending ``put`` requests."""
        return len(self._putters)

    # -- storage policy (overridden by PriorityStore) ----------------------

    def _do_put(self, item: T) -> None:
        self._items.append(item)

    def _do_get(self) -> T:
        return self._items.popleft()

    # -- operations --------------------------------------------------------

    def put(self, item: T) -> StorePut:
        """Store ``item``; the returned event fires once it is stored."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._trigger()
        return event

    def get(self) -> StoreGet:
        """Retrieve an item; the returned event fires with the item."""
        event = StoreGet(self)
        self._getters.append(event)
        self._trigger()
        return event

    def try_get(self) -> Optional[T]:
        """Non-blocking get: pop an item if available, else ``None``.

        Only valid when no getters are waiting (the waiters would have
        priority); models that mix blocking and polling styles should
        pick one per store.
        """
        if self._getters:
            raise RuntimeError("try_get with blocked getters would reorder items")
        if not self._items:
            return None
        item = self._do_get()
        self._trigger()
        return item

    def _trigger(self) -> None:
        """Match pending putters to free capacity and getters to items."""
        progress = True
        while progress:
            progress = False
            if self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                put_event = self._putters.popleft()
                self._do_put(put_event.item)
                put_event.succeed()
                progress = True
            if self._getters and self._items:
                get_event = self._getters.popleft()
                get_event.succeed(self._do_get())
                progress = True


class PriorityStore(Store[T]):
    """A Store that always yields the smallest item first.

    Items must be mutually comparable; use ``(priority, seq, payload)``
    tuples for stable ordering.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        super().__init__(env, capacity)
        self._heap: List[T] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> List[T]:
        return sorted(self._heap)

    def _do_put(self, item: T) -> None:
        heapq.heappush(self._heap, item)

    def _do_get(self) -> T:
        return heapq.heappop(self._heap)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and (
                self.capacity is None or len(self._heap) < self.capacity
            ):
                put_event = self._putters.popleft()
                self._do_put(put_event.item)
                put_event.succeed()
                progress = True
            if self._getters and self._heap:
                get_event = self._getters.popleft()
                get_event.succeed(self._do_get())
                progress = True


class Request(Event):
    """A pending or held claim on a :class:`Resource`.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def _abandon(self) -> None:
        """Withdraw a pending claim (the waiter was interrupted)."""
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO granting.

    Models mutual exclusion (capacity 1 — e.g. the MCS lock's serialized
    hand-off) and limited parallelism (capacity k).
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a held (or cancel a pending) request."""
        try:
            self._users.remove(request)
        except ValueError:
            # Not holding: cancel from the wait queue if still pending.
            try:
                self._waiters.remove(request)
            except ValueError:
                pass
            return
        if self._waiters:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.succeed()
