"""Naive hybrid: TMS and SMS side by side, no coordination (§3.1, §5.5).

The paper evaluates this design and finds that although its coverage
approaches the joint opportunity, the two predictors interfere and
generate roughly 2-3x the overpredictions of STeMS — the motivation for
unified reconstruction. Each constituent trains and predicts exactly as
standalone; TMS requests target the SVB, SMS requests target the L1.
"""

from __future__ import annotations

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig, TMSConfig
from repro.prefetch.base import (
    TARGET_L1,
    TARGET_SVB,
    AccessEvent,
    Prefetcher,
    PrefetchRequest,
)
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher


class NaiveHybridPrefetcher(Prefetcher):
    """Uncoordinated TMS + SMS combination."""

    install_target = TARGET_SVB
    name = "hybrid"

    def __init__(
        self,
        tms_config: TMSConfig = TMSConfig(),
        sms_config: SMSConfig = SMSConfig(),
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ) -> None:
        super().__init__()
        self.tms = TMSPrefetcher(tms_config)
        self.sms = SMSPrefetcher(sms_config, address_map)

    def on_access(self, event: AccessEvent) -> None:
        self.tms.on_access(event)
        self.sms.on_access(event)

    def on_l1_eviction(self, block: int) -> None:
        self.sms.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        self.tms.on_svb_discard(block, stream_id)

    def has_pending(self) -> bool:
        return self.tms.has_pending() or self.sms.has_pending()

    def pop_requests(self) -> "list[PrefetchRequest]":
        out = []
        for request in self.tms.pop_requests():
            out.append(
                PrefetchRequest(request.block, request.stream_id, TARGET_SVB)
            )
        for request in self.sms.pop_requests():
            out.append(PrefetchRequest(request.block, -1, TARGET_L1))
        return out

    def finish(self) -> None:
        self.sms.finish()
