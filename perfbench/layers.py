"""Per-layer host-time attribution, measured from outside the simulator.

A :class:`LayerTracer` replaces public methods of simulator objects with
timing wrappers.  Every wrapped call is a span; spans nest on one stack, so a
layer's *self* time is its span minus the spans of the wrapped layers it
called.  Counts and self times are aggregated in memory and read once at the
end of the run.  Nothing in ``src/`` is modified: wrapping an instance method
only shadows it with an instance attribute, and every call site in the
request path looks the method up on its object at call time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Every layer the traced run reports, in report order.  ``platforms.base`` is
#: the self time of ``memory_access`` (the shared request path plus each
#: platform's private service hooks), ``gpu.sm`` the self time of
#: ``GPUCore.run`` (event loop, issue port, MSHR), ``runner.sweep`` the self
#: time of ``SweepRunner.run`` (pool dispatch and waiting on workers).
LAYERS = (
    "platforms.build",
    "platforms.run",
    "gpu.sm",
    "gpu.coalescer",
    "gpu.cache",
    "platforms.base",
    "gpu.mmu",
    "gpu.interconnect",
    "gpu.l2cache",
    "core.prefetch_policies",
    "core.zero_overhead_ftl.read",
    "ssd.flash_controller.read",
    "core.register_cache",
    "core.zero_overhead_ftl.write",
    "ssd.flash_controller.program",
    "ssd.ssd_engine",
    "ssd.optane",
    "gpu.dram",
    "workloads.trace",
    "runner.sweep",
    "runner.cache",
    "runner.manifest",
    "runner.runner",
)


class LayerTracer:
    """Aggregates call counts and self nanoseconds per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        # One child-time accumulator per open span.
        self._stack: List[List[int]] = []

    def timed(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped so each call records one ``layer`` span."""
        calls = self.calls
        self_ns = self.self_ns
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return span

    def wrap(self, owner: object, method: str, layer: str) -> None:
        """Shadow ``owner.method`` with a timed wrapper.

        ``owner`` may be an instance (the wrapper becomes an instance
        attribute) or a class (every instance created afterwards is traced).
        An owner of ``None`` is a layer the platform does not have and is
        skipped.  A missing method raises ``AttributeError``, so a renamed
        layer fails the run instead of silently reporting 0 calls.
        """
        if owner is None:
            return
        setattr(owner, method, self.timed(getattr(owner, method), layer))

    def merge(self, calls: Dict[str, int], self_ns: Dict[str, int]) -> None:
        """Fold in the aggregates of a tracer that ran in another process."""
        for layer, count in calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + int(count)
        for layer, nanos in self_ns.items():
            self.self_ns[layer] = self.self_ns.get(layer, 0) + int(nanos)

    def metrics(self, total_ns: int) -> Dict[str, Dict[str, float]]:
        """``<layer>.calls`` / ``.self_ns_per_call`` / ``.self_share`` for every layer."""
        out: Dict[str, Dict[str, float]] = {}
        for layer in LAYERS:
            calls = self.calls.get(layer, 0)
            nanos = self.self_ns.get(layer, 0)
            out[f"{layer}.calls"] = {"value": calls, "unit": "count"}
            out[f"{layer}.self_ns_per_call"] = {
                "value": nanos / calls if calls else 0.0, "unit": "ns"}
            out[f"{layer}.self_share"] = {
                "value": nanos / total_ns if total_ns else 0.0, "unit": "share"}
        return out


def instrument_platform(tracer: LayerTracer, platform: object) -> None:
    """Wrap the public methods of every layer a built platform holds.

    The layers every platform has are reached directly; the rest only on the
    platform classes that hold them.  A renamed layer raises here.
    """
    from repro.platforms.gddr5 import GDDR5Platform
    from repro.platforms.hetero import HeteroPlatform
    from repro.platforms.hybrid_gpu import HybridGPUPlatform
    from repro.platforms.optane_platform import OptanePlatform
    from repro.platforms.zng import ZnGPlatform

    wrap = tracer.wrap
    wrap(platform, "run", "platforms.run")
    wrap(platform, "memory_access", "platforms.base")
    wrap(platform.gpu, "run", "gpu.sm")
    for sm in platform.gpu.sms:
        wrap(sm.coalescer, "coalesce", "gpu.coalescer")
        for method in ("lookup", "insert", "invalidate"):
            wrap(sm.l1, method, "gpu.cache")
    wrap(platform.mmu, "translate", "gpu.mmu")
    wrap(platform.noc, "send", "gpu.interconnect")
    for method in ("access", "fill", "fill_page"):
        wrap(platform.l2, method, "gpu.l2cache")
    if isinstance(platform, ZnGPlatform):
        # ``prefetcher`` is None on the variants without the read optimisation.
        wrap(platform.prefetcher, "train", "core.prefetch_policies")
        wrap(platform.prefetcher, "on_miss", "core.prefetch_policies")
        wrap(platform.ftl, "translate_read", "core.zero_overhead_ftl.read")
        wrap(platform.ftl, "allocate_write", "core.zero_overhead_ftl.write")
        wrap(platform.controllers, "read", "ssd.flash_controller.read")
        wrap(platform.controllers, "program", "ssd.flash_controller.program")
        wrap(platform.register_cache, "write", "core.register_cache")
        wrap(platform.register_cache, "prepare_plane_for_read", "core.register_cache")
    if isinstance(platform, HybridGPUPlatform):
        # HybridGPU's page-mapped FTL runs inside the SSD engine.
        wrap(platform.engine, "service", "ssd.ssd_engine")
    if isinstance(platform, OptanePlatform):
        wrap(platform.optane, "access", "ssd.optane")
    if isinstance(platform, (HeteroPlatform, GDDR5Platform)):
        wrap(platform.dram, "access", "gpu.dram")


def instrument_runner_classes(tracer: LayerTracer) -> None:
    """Class-level wraps for the runner objects a sweep creates internally."""
    from repro.runner.manifest import RunManifest
    from repro.runner.runner import SharedTraceStore
    from repro.runner.spec import SweepCell

    tracer.wrap(RunManifest, "write", "runner.manifest")
    tracer.wrap(SharedTraceStore, "publish", "runner.runner")
    tracer.wrap(SweepCell, "cache_key", "runner.runner")


def maybe_timed(tracer: Optional[LayerTracer], fn: Callable, layer: str) -> Callable:
    """``fn`` itself when tracing is off, else its timed wrapper."""
    return fn if tracer is None else tracer.timed(fn, layer)
