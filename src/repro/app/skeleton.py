"""Application skeletons: thread model x network model (§4.3).

The skeleton determines how a service accepts connections, schedules work
across threads, and batches event notifications — the properties Ditto
profiles with SystemTap and reproduces structurally (not statistically),
because they dominate latency and scalability behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.util.errors import ConfigurationError


class ServerNetworkModel(enum.Enum):
    """How the server side waits for requests (§4.3.1)."""

    BLOCKING = "blocking"                 # thread-per-connection recv()
    NONBLOCKING = "nonblocking"           # polling loop, burns CPU at low load
    IO_MULTIPLEXING = "io_multiplexing"   # epoll/select event loop


class ClientNetworkModel(enum.Enum):
    """How the service calls downstream tiers (§4.3.1)."""

    SYNCHRONOUS = "synchronous"     # block on send/recv awaiting response
    ASYNCHRONOUS = "asynchronous"   # event-driven callbacks


class ThreadLifecycle(enum.Enum):
    """Short-lived (spawned per task) vs long-lived (pool) threads (§4.3.2)."""

    LONG_LIVED = "long_lived"
    SHORT_LIVED = "short_lived"


class ThreadTrigger(enum.Enum):
    """What wakes a thread up (§4.3.2)."""

    SOCKET = "socket"
    TIMER = "timer"
    CONDVAR = "condvar"
    SIGNAL = "signal"


@dataclass(frozen=True)
class ThreadClass:
    """One cluster of threads with the same functionality.

    ``count`` may be zero for classes that scale dynamically with the
    connection count (``scales_with_connections`` — e.g. MongoDB spawns a
    thread per client connection).
    """

    name: str
    count: int
    role: str                      # "acceptor" | "worker" | "background"
    trigger: ThreadTrigger
    lifecycle: ThreadLifecycle = ThreadLifecycle.LONG_LIVED
    scales_with_connections: bool = False
    background_period_s: float = 0.0   # for timer-triggered classes

    def __post_init__(self) -> None:
        if self.role not in ("acceptor", "worker", "background"):
            raise ConfigurationError(f"unknown thread role {self.role!r}")
        if self.count < 0:
            raise ConfigurationError("thread count must be non-negative")
        if self.count == 0 and not self.scales_with_connections:
            raise ConfigurationError(
                f"thread class {self.name!r} has no threads and does not scale"
            )
        if self.trigger is ThreadTrigger.TIMER and self.background_period_s <= 0:
            raise ConfigurationError(
                f"timer-triggered class {self.name!r} needs a period"
            )


@dataclass(frozen=True)
class Skeleton:
    """A service's structural model.

    ``event_batch_window_s`` records the application's epoll batching
    window. The runtime batches by draining: an I/O-multiplexing worker
    serves up to ``max_batch`` queued requests per wakeup, which
    amortises context switches and keeps the i-cache warm at high load
    (the mechanism behind Fig. 5's low-load IPC dips for
    Memcached/NGINX).
    """

    server_model: ServerNetworkModel
    client_model: ClientNetworkModel
    thread_classes: Tuple[ThreadClass, ...]
    max_connections: int = 1024
    event_batch_window_s: float = 200e-6
    max_batch: int = 32

    def __post_init__(self) -> None:
        if not self.thread_classes:
            raise ConfigurationError("a skeleton needs at least one thread class")
        if self.max_connections < 1:
            raise ConfigurationError("max_connections must be >= 1")
        if self.event_batch_window_s < 0:
            raise ConfigurationError("batch window must be non-negative")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        names = [cls.name for cls in self.thread_classes]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate thread class names")

    def worker_threads(self, connections: int = 0) -> int:
        """Concurrent worker threads given ``connections`` live connections."""
        total = 0
        for cls in self.thread_classes:
            if cls.role != "worker":
                continue
            if cls.scales_with_connections:
                total += min(connections, self.max_connections)
            else:
                total += cls.count
        return max(1, total)

    def background_classes(self) -> Tuple[ThreadClass, ...]:
        """Thread classes triggered by timers."""
        return tuple(
            cls for cls in self.thread_classes if cls.role == "background"
        )

    def wait_syscall(self) -> str:
        """The syscall the server blocks in awaiting work."""
        if self.server_model is ServerNetworkModel.IO_MULTIPLEXING:
            return "epoll_wait"
        if self.server_model is ServerNetworkModel.BLOCKING:
            return "recv"
        return "recv"  # non-blocking polls recv with EAGAIN
