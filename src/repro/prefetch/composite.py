"""Composite prefetcher: the Table-1 stride engine plus one predictor.

The paper's baseline system includes a stride prefetcher (Table 1), and
the TMS/SMS/STeMS configurations add their predictor on top of it. This
wrapper forwards every event to both engines and merges their requests,
which is what the Fig. 10 performance comparison requires.
"""

from __future__ import annotations

from typing import List

from repro.common.config import StrideConfig
from repro.prefetch.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.prefetch.stride import StridePrefetcher


class CompositePrefetcher(Prefetcher):
    """Stride engine + one main predictor, as in the paper's system model."""

    def __init__(
        self,
        main: Prefetcher,
        stride_config: StrideConfig = StrideConfig(),
    ) -> None:
        super().__init__()
        self.main = main
        self.stride = StridePrefetcher(stride_config)
        self.install_target = main.install_target
        self.name = f"stride+{main.name}"

    def on_access(self, event: AccessEvent) -> None:
        self.stride.on_access(event)
        self.main.on_access(event)

    def on_l1_eviction(self, block: int) -> None:
        self.main.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        self.main.on_svb_discard(block, stream_id)

    def has_pending(self) -> bool:
        return self.stride.has_pending() or self.main.has_pending()

    def pop_requests(self) -> List[PrefetchRequest]:
        main = self.main
        # the common case on the walk: neither engine asked for anything
        if not self.stride._pending and not main.has_pending():
            return []
        # stride requests already name TARGET_L1 and stream -1; a main
        # request that names its target is passed through unchanged too
        out = self.stride.pop_requests()
        for request in main.pop_requests():
            if not request.target:
                request = PrefetchRequest(
                    request.block, request.stream_id, main.install_target
                )
            out.append(request)
        return out

    def finish(self) -> None:
        if hasattr(self.main, "finish"):
            self.main.finish()
