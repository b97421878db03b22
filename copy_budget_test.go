package rubin_test

import (
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/raceflag"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// TestCopyBudgetPerPayloadByte is the gate on the per-byte message path:
// an N=4 rdma-rubin group committing 32 KiB puts may allocate at most 30
// host bytes per payload byte inside the run (large-rubin's shape, all
// writes). A put's value crosses the client→replica hop four times and the
// leader→backup hop three times, and each hop is allowed its one copy in
// and its one copy out (the per-hop table in docs/ARCHITECTURE.md): the run
// measures 25.5. It measured 60.5 while BatchDigest encoded the batch to
// hash it, Decode copied every field out of the receive buffer and an
// envelope was put together from three buffers — a copy put back on that
// path fails here before it shows in the benchmark.
func TestCopyBudgetPerPayloadByte(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	const users, ops, valueSize, budget = 32, 768, 32 << 10, 30
	c, err := pbft.NewCluster(transport.KindRDMA, pbft.DefaultConfig(), model.Default(), 1,
		func(int) pbft.Application { return kvstore.New() })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	clients := make([]*pbft.Client, 4)
	for i := range clients {
		if clients[i], err = c.AddClient(); err != nil {
			t.Fatal(err)
		}
	}
	d, err := workload.New(c.Loop, workload.Config{
		Users: users, Conns: len(clients), Ops: ops, Keys: workload.NewUniform(64),
		Mix: workload.Mix{WritePct: 100}, Arrival: workload.Closed(1, 0), ValueSize: valueSize, Seed: 1,
	}, func(conn int, op []byte, done func([]byte)) string { return clients[conn].Invoke(op, done) })
	if err != nil {
		t.Fatal(err)
	}
	allocated := allocatedBy(func() { err = d.Run() })
	if err != nil || d.Completed() != ops {
		t.Fatalf("run: %v, %d of %d puts committed", err, d.Completed(), ops)
	}
	if perByte := float64(allocated) / (ops * valueSize); perByte > budget {
		t.Errorf("%.1f host bytes allocated per payload byte, want <= %d", perByte, budget)
	} else {
		t.Logf("%.1f host bytes allocated per payload byte", perByte)
	}
}
