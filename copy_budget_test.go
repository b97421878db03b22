package rubin_test

import (
	"testing"

	"rubin/internal/raceflag"
	"rubin/internal/transport"
)

// TestCopyBudgetPerPayloadByte is the gate on the per-byte message path:
// an N=4 group committing 32 KiB puts may allocate at most 5 host bytes per
// payload byte inside the run (large-rubin's shape, all writes), on either
// transport — the larger reading plus about 20 %, the nearest whole byte to
// 25 %. A put's value crosses the client→replica hop four times and no
// other — a pre-prepare names it by ref — and each hop is allowed its one
// copy in and its one copy out (the per-hop table in docs/ARCHITECTURE.md),
// and memory a replica keeps is reused, not allocated: the run measures 2.7
// on rdma-rubin and 4.0 on tcp-nio, since a socket buffer is a ring that
// stops growing at the socket buffer size (tcp-nio read 4.4 when replicas
// got a client selector of their own and clients queued deeper, while a
// bytes.Buffer re-grew under the deeper queue; 3.6 and 4.2 before that, the
// driver then encoding each put's padded value into a string of its own).
// The copy in is the replica's request
// row keeping the op in the backing a released row gave back, the
// transports lending the landed message from memory they reuse, and the
// store copying the value over its key's held value. It measured 7.3 and
// 8.1 (budget 12) while each row's copy was an allocation of its own that
// the store kept as the value, and 8.6 and 9.3 before a replica stopped
// allocating each proposal and a key string per put; 12.6 and 13.3 while
// the store copied each value out of the row into a new allocation, and
// 12.4 and 13.4 while the row kept the landed message's own buffer as it
// was (budget 17). While a pre-prepare carried
// the requests across the leader→backup hop three more times it measured
// 18.7 and 19.1 (18.3 and 19.8 while a batch cut by size left its timer
// armed; rdma-rubin read 21.8 while a receive slot kept a backing of its
// own and the channel copied each landed message out of it; 22.7
// and 21.1 while MarshalPartition cloned every checkpointed bucket and a
// checkpoint grew each bucket's encoding field by field; 25.1 and 23.5
// while every request and every envelope was encoded into a fresh buffer
// rather than its sender's scratch). rdma-rubin measured 60.5 while
// BatchDigest encoded the batch to hash it, Decode copied every field out
// of the receive buffer and an envelope was put together from three
// buffers; tcp-nio measured 94.6 while Send, flush and Write each
// made their own copy and the socket buffers were re-grown as they were
// consumed — a copy put back on that path fails here before it shows in
// the benchmark.
func TestCopyBudgetPerPayloadByte(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	const users, ops, keys, valueSize, budget = 32, 768, 64, 32 << 10, 5
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		allocated := putRun(t, kind, users, ops, keys, valueSize).bytes
		if perByte := float64(allocated) / (ops * valueSize); perByte > budget {
			t.Errorf("%s: %.1f host bytes allocated per payload byte, want <= %d", kind, perByte, budget)
		} else {
			t.Logf("%s: %.1f host bytes allocated per payload byte", kind, perByte)
		}
	}
}
