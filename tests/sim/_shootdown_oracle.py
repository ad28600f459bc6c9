"""Per-key reference shootdown the bulk invalidation is proven against.

A verbatim copy of ``System.apply_shootdown`` as it stood before
shootdowns moved to bulk, set-grouped invalidation: every key is
invalidated one call at a time on every core's L1 and private L2
(materialising lazy sets as it goes), and each invalidate message
recounts its slice's entries with a list comprehension.  Tests patch
it over ``System.apply_shootdown`` and demand byte-identical runs.
"""

from typing import Dict, List, Tuple

from repro.sim import configs as cfg
from repro.sim.system import IPI_CYCLES


def per_key_apply_shootdown(
    self, initiator: int, entries: List[Tuple[int, int, int]], now: int
) -> None:
    n = self.config.num_cores
    self.sink.event(
        now, "shootdown", initiator=initiator, entries=len(entries)
    )
    for core in range(n):
        for asid, size, page_number in entries:
            self.l1s[core].invalidate(asid, size, page_number)
        self.pending_penalty[core] += IPI_CYCLES
    if self.config.scheme == cfg.PRIVATE:
        for core in range(n):
            for asid, size, page_number in entries:
                self.private_l2[core].invalidate(asid, size, page_number)
            self.pending_penalty[core] += len(entries)
        return
    homes = sorted({self.shared_l2.home(pn, a) for a, _, pn in entries})
    plan = self.invalidation.plan(initiator, homes)
    self.stats.shootdown_messages += len(plan.messages)
    completion = now
    sender_done: Dict[int, int] = {}
    for message in plan.messages:
        dst_tile = self.mono_tile if self._is_monolithic else message.dst
        if message.kind == "relay":
            dst_tile = message.dst
        arrival = self._plain_send(message.src, dst_tile, now)
        if message.kind == "invalidate":
            per_slice = [e for e in entries
                         if self.shared_l2.home(e[2], e[0]) == message.dst]
            finish = self.shared_l2.write_ports[message.dst].reserve_many(
                arrival, max(1, len(per_slice))
            )
        else:
            finish = arrival
        sender_done[message.src] = max(
            sender_done.get(message.src, now), finish
        )
        completion = max(completion, finish)
    for sender, done in sender_done.items():
        if sender != initiator:
            self.pending_penalty[sender] += done - now
    for asid, size, page_number in entries:
        self.shared_l2.invalidate(asid, size, page_number)
    self.pending_penalty[initiator] += completion - now
