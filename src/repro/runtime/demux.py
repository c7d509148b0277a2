"""Live flow demultiplexing: split packet batches by canonical 5-tuple.

The first thing the deployed probe does with a packet batch is route every
row to its bidirectional flow.  :class:`FlowDemux` does that on the columnar
substrate: distinct transport addresses are factorised with one vectorised
``id()`` gather (generator- and PCAP-produced batches intern one tuple
object per flow and direction, so identity grouping touches Python once per
*distinct* address, not per packet), each group splits by direction code,
and both directions of a conversation canonicalise to the same
:class:`~repro.net.flow.FlowKey` — exactly like
:meth:`FlowKey.from_packet`, without building packets.

Row order within a flow is preserved (sub-batches keep the original batch
positions), which is what lets the per-session accumulators reproduce the
offline stream exactly after one stable time sort.  Rows no session could
fold (a non-finite timestamp, a negative payload size, an unknown direction
code) are rejected at this boundary and counted per reason.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.flow import FlowKey
from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    PacketColumns,
    UPSTREAM_CODE,
)

__all__ = ["FlowDemux", "canonical_flow_key", "flow_addresses"]

_ID_OF = np.frompyfunc(id, 1, 1)

#: Why :class:`FlowDemux` rejects a row, in the order the checks apply.
REJECT_REASONS = ("non_finite_time", "negative_size", "bad_direction")


def flow_addresses(key: FlowKey) -> Tuple[tuple, tuple]:
    """The ``(upstream, downstream)`` address tuples of a canonical key.

    Exact inverse of :func:`canonical_flow_key`: an upstream packet's
    columnar address is ``(client_ip, server_ip, client_port, server_port,
    protocol)`` and a downstream packet's is the endpoint-swapped tuple, so
    a flow's per-row addresses are fully recoverable from its key plus the
    direction column.  The shared-memory data plane (DESIGN.md §12) uses
    this to rebuild the object-dtype address column worker-side instead of
    shipping Python tuples through the ring.
    """
    upstream = (
        key.client_ip, key.server_ip, key.client_port, key.server_port, key.protocol,
    )
    downstream = (
        key.server_ip, key.client_ip, key.server_port, key.client_port, key.protocol,
    )
    return upstream, downstream


def canonical_flow_key(address: tuple, direction_code: int) -> FlowKey:
    """Canonical (client-first) flow key of an address tuple + direction.

    ``address`` is the columnar ``(src_ip, dst_ip, src_port, dst_port,
    protocol)`` tuple; upstream packets have the client as source.
    """
    if direction_code == UPSTREAM_CODE:
        return FlowKey(
            client_ip=address[0],
            client_port=address[2],
            server_ip=address[1],
            server_port=address[3],
            protocol=address[4],
        )
    return FlowKey(
        client_ip=address[1],
        client_port=address[3],
        server_ip=address[0],
        server_port=address[2],
        protocol=address[4],
    )


class FlowDemux:
    """Stateful batch demultiplexer (the canonical-key cache persists).

    Malformed rows never reach a flow: a row whose timestamp is not finite
    (``non_finite_time``), whose payload size is negative or not finite
    (``negative_size``) or whose direction code is neither upstream nor
    downstream (``bad_direction``) is rejected and counted under the first
    of those reasons it meets, in :attr:`rejected_rows`.  The feed clock
    must come from admitted rows only: :attr:`newest_admitted` holds the
    newest admitted timestamp of the last split batch.
    """

    def __init__(self) -> None:
        self._canonical: Dict[Tuple[tuple, int], FlowKey] = {}
        self.rejected_rows = dict.fromkeys(REJECT_REASONS, 0)
        self.newest_admitted = float("-inf")

    def _key_for(self, address: tuple, direction_code: int) -> FlowKey:
        cached = self._canonical.get((address, direction_code))
        if cached is None:
            cached = canonical_flow_key(address, direction_code)
            self._canonical[(address, direction_code)] = cached
        return cached

    def _admit(self, columns: PacketColumns) -> Optional[np.ndarray]:
        """Admitted row indices (``None``: every row), counting rejects."""
        timestamps = columns.timestamps
        sizes = columns.payload_sizes
        directions = columns.directions
        newest = float(timestamps.max())
        # the common, clean batch costs six reductions: NaN propagates
        # through min/max, and the two direction codes (0, 1) are adjacent
        if (
            np.isfinite(newest)
            and np.isfinite(timestamps.min())
            and sizes.min() >= 0
            and np.isfinite(sizes.max())
            and directions.min() >= DOWNSTREAM_CODE
            and directions.max() <= UPSTREAM_CODE
        ):
            self.newest_admitted = newest
            return None
        time_ok = np.isfinite(timestamps)
        size_ok = np.isfinite(sizes) & (sizes >= 0)
        direction_ok = (directions == DOWNSTREAM_CODE) | (directions == UPSTREAM_CODE)
        admitted = time_ok & size_ok & direction_ok
        for reason, bad in zip(
            REJECT_REASONS,
            (~time_ok, time_ok & ~size_ok, time_ok & size_ok & ~direction_ok),
        ):
            self.rejected_rows[reason] += int(np.count_nonzero(bad))
        rows = np.flatnonzero(admitted)
        self.newest_admitted = (
            float(timestamps[rows].max()) if rows.size else float("-inf")
        )
        return rows

    def split(self, columns: PacketColumns) -> List[Tuple[FlowKey, PacketColumns]]:
        """Partition one batch into per-flow sub-batches.

        Returns ``(key, sub_batch)`` pairs; every admitted row of
        ``columns`` lands in exactly one sub-batch, and rows of the same
        flow keep their relative batch order.  Flows first seen in this
        batch appear in first-packet order.
        """
        return [
            (key, columns.take(rows)) for key, rows in self.split_indices(columns)
        ]

    def split_indices(
        self, columns: PacketColumns
    ) -> List[Tuple[FlowKey, np.ndarray]]:
        """Per-flow sorted row indices, without materialising sub-batches.

        Same contract as :meth:`split` — every admitted row lands in exactly
        one group, row order within a flow is the batch order, flows first
        seen in this batch appear in first-packet order — but each flow is
        returned as ``(key, row_indices)`` instead of a copied sub-batch.
        ``columns.take(rows)`` of each pair reproduces :meth:`split`
        exactly; the sharded data plane instead gathers the rows of every
        flow straight into a shared-memory ring slot (DESIGN.md §12).
        """
        if not len(columns):
            self.newest_admitted = float("-inf")
            return []
        admitted = self._admit(columns)
        directions = columns.directions
        addresses = columns.addresses
        if admitted is not None:
            if not admitted.size:
                return []
            directions = directions[admitted]
            addresses = addresses[admitted] if addresses is not None else None
        groups: Dict[FlowKey, List[np.ndarray]] = {}
        if addresses is None:
            for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                rows = np.flatnonzero(directions == code)
                if rows.size:
                    groups.setdefault(self._key_for(DEFAULT_ADDRESS, code), []).append(rows)
        else:
            ids = _ID_OF(addresses).astype(np.int64)
            unique_ids, first_rows = np.unique(ids, return_index=True)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            starts = np.searchsorted(sorted_ids, unique_ids, side="left")
            ends = np.searchsorted(sorted_ids, unique_ids, side="right")
            # visit address groups in first-appearance order so new flows
            # register deterministically
            for group in np.argsort(first_rows, kind="stable"):
                rows = order[starts[group] : ends[group]]
                rows = np.sort(rows)
                address = addresses[int(first_rows[group])]
                codes = directions[rows]
                for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                    selected = rows[codes == code]
                    if selected.size:
                        groups.setdefault(self._key_for(address, code), []).append(
                            selected
                        )
        out: List[Tuple[FlowKey, np.ndarray]] = []
        for key, parts in groups.items():
            rows = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            # admitted indices are sorted, so the mapping keeps batch order
            out.append((key, rows if admitted is None else admitted[rows]))
        return out
