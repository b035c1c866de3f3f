"""API-hook registry: Pictor's interception layer.

Pictor never modifies the 3D applications.  Instead it interposes on the
standard APIs every Linux 3D application already calls — X event
delivery, GL buffer swaps, pixel readback, shared-memory image puts, and
the proxies' network send/receive paths — at ten well-defined hook points
(Figure 4).  Each hook can (a) timestamp the call, (b) extract or attach
an input tag, and (c) trigger auxiliary measurements such as GPU time
queries.

The registry below is that interception layer for the simulated stack:
pipeline components *fire* hook points as they execute the corresponding
API calls, and the measurement framework *installs* callbacks on them.
Firing a hook costs a small amount of CPU time (the interception and
timestamping work), which is how the framework's ~2.7% FPS overhead
arises; when measurement is disabled the hooks are inert and free.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["HookPoint", "HookRegistry", "HOOK_APIS", "HOOK_HISTORY"]

#: How many of the most recent firings a :class:`HookRegistry` keeps.
HOOK_HISTORY = 1024


class HookPoint(enum.Enum):
    """The ten hook points of Figure 4, client → server → client."""

    HOOK1 = "hook1"    # client proxy: tag a captured user input
    HOOK2 = "hook2"    # server proxy: extract tag from the network message
    HOOK3 = "hook3"    # server proxy: forward input (+tag) to the application
    HOOK4 = "hook4"    # application: receive input (XNextEvent / glutKeyboardFunc)
    HOOK5 = "hook5"    # application: start GPU rendering (glXSwapBuffers)
    HOOK6 = "hook6"    # interposer: frame readback (glReadBuffer / glReadPixels)
    HOOK7 = "hook7"    # interposer: frame hand-off (XShmPutImage / glMapBuffer)
    HOOK8 = "hook8"    # server proxy: receive tagged frame, restore pixels
    HOOK9 = "hook9"    # server proxy: frame compressed and queued for sending
    HOOK10 = "hook10"  # client proxy: frame received, match tag with its input


#: The concrete APIs each hook intercepts (Table 1 plus the proxy-side hooks
#: identified from the TurboVNC / client source).
HOOK_APIS: dict[HookPoint, tuple[str, ...]] = {
    HookPoint.HOOK1: ("client_capture_input",),
    HookPoint.HOOK2: ("rfbProcessClientMessage",),
    HookPoint.HOOK3: ("XTestFakeKeyEvent", "XTestFakeMotionEvent"),
    HookPoint.HOOK4: ("XNextEvent", "glutKeyboardFunc"),
    HookPoint.HOOK5: ("glXSwapBuffers", "glutSwapBuffers"),
    HookPoint.HOOK6: ("glReadBuffer", "glReadPixels"),
    HookPoint.HOOK7: ("XShmPutImage", "glMapBuffer"),
    HookPoint.HOOK8: ("rfbTranslateFrame",),
    HookPoint.HOOK9: ("rfbSendFramebufferUpdate",),
    HookPoint.HOOK10: ("client_display_frame",),
}


@dataclass
class HookEvent:
    """One recorded hook invocation."""

    hook: HookPoint
    timestamp: float
    api: str
    tag: Optional[int] = None
    frame_id: Optional[int] = None
    context: dict[str, Any] = field(default_factory=dict)


class HookRegistry:
    """Holds installed hook callbacks and counts every firing.

    ``events`` keeps only the last :data:`HOOK_HISTORY` firings, so a long
    run does not retain one record per hook; ``fire_counts`` covers the
    whole run.

    ``overhead_per_fire`` is the CPU time one interception costs (parsing
    the call, reading the clock, touching the tag table).  Components that
    fire hooks from CPU-charged stages add ``registry.fire_overhead()`` to
    their stage time so enabling measurement slows the pipeline down by a
    small, realistic amount.
    """

    def __init__(self, enabled: bool = True, overhead_per_fire: float = 80e-6):
        if overhead_per_fire < 0:
            raise ValueError("hook overhead cannot be negative")
        self.enabled = enabled
        self.overhead_per_fire = overhead_per_fire
        self._callbacks: dict[HookPoint, list[Callable[[HookEvent], None]]] = {
            hook: [] for hook in HookPoint}
        self.events: deque[HookEvent] = deque(maxlen=HOOK_HISTORY)
        self.fire_counts: dict[HookPoint, int] = {hook: 0 for hook in HookPoint}

    # -- installation -----------------------------------------------------------
    def install(self, hook: HookPoint,
                callback: Callable[[HookEvent], None]) -> None:
        """Install a callback to run whenever ``hook`` fires."""
        self._callbacks[hook].append(callback)

    def uninstall_all(self, hook: Optional[HookPoint] = None) -> None:
        if hook is None:
            for callbacks in self._callbacks.values():
                callbacks.clear()
        else:
            self._callbacks[hook].clear()

    # -- firing -------------------------------------------------------------------
    def fire(self, hook: HookPoint, timestamp: float, api: str = "",
             tag: Optional[int] = None, frame_id: Optional[int] = None,
             **context: Any) -> Optional[HookEvent]:
        """Fire a hook point; returns the recorded event (None when disabled)."""
        if not self.enabled:
            return None
        if not api:
            api = HOOK_APIS[hook][0]
        event = HookEvent(hook=hook, timestamp=timestamp, api=api, tag=tag,
                          frame_id=frame_id, context=context)
        self.events.append(event)
        self.fire_counts[hook] += 1
        for callback in self._callbacks[hook]:
            callback(event)
        return event

    def fire_overhead(self, fires: int = 1) -> float:
        """CPU seconds consumed by ``fires`` hook interceptions."""
        if not self.enabled:
            return 0.0
        return self.overhead_per_fire * fires

    # -- queries ----------------------------------------------------------------------
    def events_for_tag(self, tag: int) -> list[HookEvent]:
        return [event for event in self.events if event.tag == tag]

    def events_for_hook(self, hook: HookPoint) -> list[HookEvent]:
        return [event for event in self.events if event.hook is hook]

    def total_fires(self) -> int:
        return sum(self.fire_counts.values())
