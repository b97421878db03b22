package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// meter is one resource of a simulated world as a cost table reads it: the
// role its host plays (leader, backup, client or server; every NIC is role
// NIC and every link direction role link), what it is (CPU, app, peer app,
// client app, NIC or wire), the resource itself and, for a CPU or an
// application thread, the node it serves.
type meter struct {
	name, role, res string
	r               *sim.Resource
	node            *fabric.Node
}

// thread is the role and the resource class of one application thread.
type thread struct{ role, res string }

// meters lists every resource of nw. roleOf names the role of a node's CPU
// and of each of its application threads, thread k at index k.
func meters(nw *fabric.Network, roleOf func(*fabric.Node) (cpu string, threads []thread)) []meter {
	var ms []meter
	nodes := nw.Nodes()
	for _, n := range nodes {
		cpu, threads := roleOf(n)
		ms = append(ms, meter{n.Name() + "/cpu", cpu, "CPU", n.CPU, n})
		for k, th := range threads {
			name := n.Name() + "/app"
			if k > 0 {
				name += fmt.Sprint(k)
			}
			ms = append(ms, meter{name, th.role, th.res, n.Thread(k), n})
		}
		ms = append(ms, meter{n.Name() + "/nic", "NIC", "NIC", n.NIC, nil})
	}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if l := nw.Link(a, b); l != nil {
				ms = append(ms, meter{a.Name() + "->" + b.Name(), "link", "wire", l.Wire(a), nil}, meter{b.Name() + "->" + a.Name(), "link", "wire", l.Wire(b), nil})
			}
		}
	}
	return ms
}

// roles gives a deployment's hosts their roles: of K groups, pillar k's
// peer thread (k) and client thread (K+k) are the leader's if the host
// holds group k's leader, and a host's CPU is the leader's if any of its
// pillars is. Every other node is a front-end, a client.
func (d *deployment) roles(n *fabric.Node) (string, []thread) {
	i := slices.Index(d.hosts, n)
	if i < 0 {
		return "client", []thread{{"client", "app"}}
	}
	k := len(d.groups)
	cpu, threads := "backup", make([]thread, 2*k)
	for g, c := range d.groups {
		role := "backup"
		if c.Replicas[i].IsLeader() {
			role, cpu = "leader", "leader"
		}
		threads[g], threads[k+g] = thread{role, "peer app"}, thread{role, "client app"}
	}
	return cpu, threads
}

// reading is one meter at one instant: the busy time charged to it per
// kind, and the service it has delivered (charged less what is queued).
type reading struct {
	busy   sim.Busy
	served sim.Time
}

// snapshot reads every meter.
func snapshot(ms []meter) []reading {
	s := make([]reading, len(ms))
	for i, m := range ms {
		s[i] = reading{m.r.Snapshot(), m.r.Served()}
	}
	return s
}

// echoWorld connects a client and a server node with one transport
// connection of the given kind, the server echoing every message, and
// returns the loop, the world and the client's end.
func echoWorld(t *testing.T, kind transport.Kind, batch int) (*sim.Loop, *fabric.Network, transport.Conn) {
	t.Helper()
	loop, cn, sn := twoNodes(1, model.Default())
	opts := transport.DefaultOptions()
	opts.Batch = batch
	cs, err := transport.NewStack(kind, cn, opts)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := transport.NewStack(kind, sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Listen(9, func(c transport.Conn) { c.OnMessage(func(msg []byte) { _ = c.Send(msg) }) }); err != nil {
		t.Fatal(err)
	}
	var conn transport.Conn
	loop.Post(func() {
		cs.Dial(sn, 9, func(c transport.Conn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			conn = c
		})
	})
	loop.Run()
	if conn == nil {
		t.Fatalf("%s: echo set-up failed", kind)
	}
	return loop, cn.Network(), conn
}

// echoRoles names the two nodes of an echo world by what they do.
func echoRoles(n *fabric.Node) (string, []thread) { return n.Name(), []thread{{n.Name(), "app"}} }

// kindsOn returns the kinds that landed on each class of resource between
// two snapshots, every role together.
func kindsOn(ms []meter, before, after []reading) map[string][]string {
	got := map[string][]string{}
	for i, m := range ms {
		class := m.res
		if class == "wire" {
			class = "link"
		}
		for k, name := range model.KindNames {
			if after[i].busy[k] > before[i].busy[k] && !slices.Contains(got[class], name) {
				got[class] = append(got[class], name)
			}
		}
	}
	for _, names := range got {
		slices.Sort(names)
	}
	return got
}

// TestChargeKinds drives one echo, one PBFT put and one fast read on each
// stack, from a world already set up, and pins which kinds land on which
// resource: on the application threads the socket calls or the verbs work,
// RUBIN's dispatch and the per-message handling; on the CPU the kernel's
// interrupt, segment and wakeup work, NIO's dispatch (ROADMAP O26), and the
// protocol's MACs, digests, ordering and execution; on the NIC only the
// RNIC's DMA and completions; on the links only the wire. A replica's
// transport work splits by connection: PRE-PREPARE, PREPARE, COMMIT and
// CHECKPOINT on its peer thread, REQUEST and REPLY on its client thread, so
// a put loads both, and a fast read — READ-REQUEST and READ-REPLY, no
// agreement — its client thread alone. Set-up is over before the snapshot,
// so neither set-up kind shows there; connecting the echo charged them —
// rdma_cm's call and the MR registrations on the CPU, the TCP dial's call on
// the application thread.
func TestChargeKinds(t *testing.T) {
	type want struct{ app, peer, client, cpu, nic []string }
	verbs := []string{"MsgHandle", "completion", "receive copy", "select dispatch", "verbs post"}
	sockets := []string{"MsgHandle", "socket read", "socket write"}
	kernel := []string{"interrupt", "segment", "select dispatch", "wakeup"}
	protocol := []string{"MAC", "digest", "execute", "order"}
	reads := []string{"MAC", "execute"}
	rnic := []string{"DMA", "completion"}
	for _, tc := range []struct {
		kind             transport.Kind
		echo, put, fetch want
		setupOn          string   // where connecting the echo charged its set-up kinds
		setup            []string // every kind it charged there
	}{
		{transport.KindRDMA, want{verbs, nil, nil, nil, rnic}, want{verbs, verbs, verbs, protocol, rnic}, want{verbs, nil, verbs, reads, rnic}, "CPU", []string{"MR set-up", "connection set-up"}},
		{transport.KindTCP, want{sockets, nil, nil, kernel, nil}, want{sockets, sockets, sockets, slices.Concat(protocol, kernel), nil}, want{sockets, nil, sockets, slices.Concat(reads, kernel), nil}, "app", []string{"connection set-up"}},
	} {
		check := func(shape string, w want, got map[string][]string) {
			t.Helper()
			slices.Sort(w.cpu)
			// The front-ends' threads are class app, a replica's peer app
			// and client app; an echo has no replica.
			for _, c := range []struct {
				class string
				want  []string
			}{{"app", w.app}, {"peer app", w.peer}, {"client app", w.client}, {"CPU", w.cpu}, {"NIC", w.nic}, {"link", []string{"wire"}}} {
				if !slices.Equal(got[c.class], c.want) {
					t.Errorf("%s %s: kinds on %s %q, want %q", tc.kind, shape, c.class, got[c.class], c.want)
				}
			}
		}

		loop, nw, conn := echoWorld(t, tc.kind, 1)
		ms := meters(nw, echoRoles)
		before := snapshot(ms)
		if got := kindsOn(ms, make([]reading, len(ms)), before)[tc.setupOn]; !slices.Equal(got, tc.setup) {
			t.Errorf("%s set-up: kinds on %s %q, want %q", tc.kind, tc.setupOn, got, tc.setup)
		}
		echoed := false
		conn.OnMessage(func([]byte) { echoed = true })
		loop.Post(func() { _ = conn.Send(make([]byte, 1024)) })
		loop.Run()
		if !echoed {
			t.Fatalf("%s: no echo", tc.kind)
		}
		check("echo", tc.echo, kindsOn(ms, before, snapshot(ms)))

		d, err := deploy(deploySpec{kind: tc.kind, seed: 1, conns: 1, readTimeout: 2 * sim.Millisecond}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		ms = meters(d.nw, d.roles)
		before = snapshot(ms)
		done := 0
		d.putLoop(1, 1024, func(_, sent int) (string, bool) { return "k", sent < 1 }, func(int, sim.Time) bool { done++; return true })
		d.loop.Run()
		if done != 1 {
			t.Fatalf("%s: %d requests completed, want 1", tc.kind, done)
		}
		check("PBFT put", tc.put, kindsOn(ms, before, snapshot(ms)))

		before = snapshot(ms)
		d.loop.Post(func() { d.fronts[0].InvokeOp(kvstore.EncodeOp(kvstore.OpGet, "k", ""), func([]byte) { done++ }) })
		d.loop.Run()
		if done != 2 || d.groups[0].Replicas[0].Executed() != 1 {
			t.Fatalf("%s: the read did not complete on the fast path", tc.kind)
		}
		check("fast read", tc.fetch, kindsOn(ms, before, snapshot(ms)))
	}
}

// ledgerShape is one column of the cost ledger: a workload on a world of
// its own, metered from the end of its warm-up to its last reply.
type ledgerShape struct {
	name string
	run  func(t *testing.T) ledgerRun
}

// ledgerRun is what one shape measured: its meters, their snapshots at
// the end of warm-up and at the last reply, and the requests completed in
// between.
type ledgerRun struct {
	ms            []meter
	before, after []reading
	span          sim.Time
	completed     int
}

// ledgerWindow counts completions and snapshots the meters when warm-up
// ends and when the last reply arrives.
type ledgerWindow struct {
	loop        *sim.Loop
	warm, total int
	done        int
	start       sim.Time
	run         ledgerRun
}

func newLedgerWindow(loop *sim.Loop, ms []meter, warm, measured int) *ledgerWindow {
	return &ledgerWindow{loop: loop, warm: warm, total: warm + measured, run: ledgerRun{ms: ms, completed: measured}}
}

// reply counts one completion.
func (w *ledgerWindow) reply() {
	w.done++
	switch w.done {
	case w.warm:
		w.run.before, w.start = snapshot(w.run.ms), w.loop.Now()
	case w.total:
		w.run.after, w.run.span = snapshot(w.run.ms), w.loop.Now()-w.start
	}
}

// result is the window once the loop has drained.
func (w *ledgerWindow) result(t *testing.T) ledgerRun {
	t.Helper()
	if w.done != w.total || w.run.before == nil {
		t.Fatalf("completed %d of %d requests", w.done, w.total)
	}
	return w.run
}

// echoShape is an echo on one stack, Figure 4's shape: 1 KiB messages,
// 30 outstanding, coalesced 10 per syscall or doorbell.
func echoShape(name string, kind transport.Kind) ledgerShape {
	return ledgerShape{name, func(t *testing.T) ledgerRun {
		loop, nw, conn := echoWorld(t, kind, 10)
		w := newLedgerWindow(loop, meters(nw, echoRoles), 300, 3000)
		msg, sent := make([]byte, 1024), 0
		send := func() {
			if sent < w.total {
				sent++
				_ = conn.Send(msg)
			}
		}
		conn.OnMessage(func([]byte) { w.reply(); send() })
		loop.Post(func() {
			for range 30 {
				send()
			}
		})
		loop.Run()
		return w.result(t)
	}}
}

// putShape is the fixed-key put loop of E5 and E8 on K groups of N = 4:
// four front-ends keep window puts of kb KiB outstanding each.
func putShape(name string, kind transport.Kind, groups, kb, window, warm, measured int) ledgerShape {
	return ledgerShape{name, func(t *testing.T) ledgerRun {
		d, err := deploy(deploySpec{kind: kind, seed: 1, conns: 4}, shard.Config{Shards: groups, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		w := newLedgerWindow(d.loop, meters(d.nw, d.roles), 4*warm, 4*measured)
		d.putLoop(window, kb<<10, func(conn, sent int) (string, bool) {
			return fmt.Sprintf("k-%d-%d", conn, sent), sent < warm+measured
		}, func(int, sim.Time) bool { w.reply(); return true })
		d.loop.Run()
		return w.result(t)
	}}
}

// loadShape is a benchmark workload's shape with fewer ops: wcfg's users
// over four front-ends, metered over its measured ops; a positive
// readTimeout serves reads on the fast path.
func loadShape(name string, kind transport.Kind, readTimeout sim.Time, wcfg workload.Config) ledgerShape {
	return ledgerShape{name, func(t *testing.T) ledgerRun {
		d, err := deploy(deploySpec{kind: kind, seed: 1, conns: 4, readTimeout: readTimeout}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		w := newLedgerWindow(d.loop, meters(d.nw, d.roles), wcfg.Warmup, wcfg.Ops)
		wcfg.Conns, wcfg.Seed = 4, 1
		drv, err := workload.New(d.loop, wcfg, func(conn int, op []byte, done func([]byte)) string {
			return d.fronts[conn].InvokeOp(op, func(res []byte) { w.reply(); done(res) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Run(); err != nil {
			t.Fatal(err)
		}
		return w.result(t)
	}}
}

// smallShape is the small-rubin / small-nio load with fewer ops: 96 users
// in closed loop, 128 B values, mixed operations on 1024 keys at Zipf 0.9.
// It saturates the group, which is where batching shows.
func smallShape(name string, kind transport.Kind) ledgerShape {
	return loadShape(name, kind, 0, workload.Config{
		Users: 96, Ops: 3000, Warmup: 300, Keys: workload.NewZipf(1024, 0.9),
		Mix: workload.Mix{ReadPct: 45, WritePct: 45, ScanPct: 5, DeletePct: 5}, Arrival: workload.Closed(1, 0), ValueSize: 128,
	})
}

// ledgerShapes are the cost ledger's columns.
var ledgerShapes = []ledgerShape{
	echoShape("echo RUBIN", transport.KindRDMA),
	echoShape("echo NIO", transport.KindTCP),
	putShape("PBFT RUBIN 1KB", transport.KindRDMA, 1, 1, 16, 50, 400),
	putShape("PBFT NIO 1KB", transport.KindTCP, 1, 1, 16, 50, 400),
	putShape("PBFT RUBIN 16KB", transport.KindRDMA, 1, 16, 4, 20, 150),
	putShape("PBFT NIO 16KB", transport.KindTCP, 1, 16, 4, 20, 150),
	putShape("COP K=4 RUBIN 64KB", transport.KindRDMA, 4, 64, 4, 10, 60),
	putShape("COP K=4 NIO 64KB", transport.KindTCP, 4, 64, 4, 10, 60),
	smallShape("small RUBIN", transport.KindRDMA),
	smallShape("small NIO", transport.KindTCP),
}

// ledgerRoles and ledgerResources order the ledger's rows.
var (
	ledgerRoles     = []string{"leader", "backup", "server", "client", "NIC", "link"}
	ledgerResources = []string{"app", "peer app", "client app", "CPU", "NIC", "wire"}
)

// renderLedger is the markdown table docs/ARCHITECTURE.md holds: per
// (role, resource, kind), the busy time every resource of that role was
// charged in the window, in µs per completed request, one column per shape;
// then each shape's busiest resource and its utilization over the window.
func renderLedger(runs []ledgerRun) string {
	var b strings.Builder
	b.WriteString("| role | resource | kind |")
	for _, s := range ledgerShapes {
		fmt.Fprintf(&b, " %s |", s.name)
	}
	b.WriteString("\n|---|---|---|" + strings.Repeat("---:|", len(ledgerShapes)) + "\n")
	var charged [sim.Kinds]bool
	for _, role := range ledgerRoles {
		for _, res := range ledgerResources {
			for k, name := range model.KindNames {
				row, any := make([]string, len(runs)), false
				for i, r := range runs {
					var d sim.Time
					for j, m := range r.ms {
						if m.role == role && m.res == res {
							d += r.after[j].busy[k] - r.before[j].busy[k]
						}
					}
					if d > 0 {
						row[i], any = fmt.Sprintf("%.2f", d.Micros()/float64(r.completed)), true
					}
				}
				if any {
					charged[k] = true
					fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", role, res, name, strings.Join(row, " | "))
				}
			}
		}
	}
	b.WriteString("| busiest | | utilization |")
	for _, r := range runs {
		best, util := "", 0.0
		for j, m := range r.ms {
			if u := float64(r.after[j].served-r.before[j].served) / (float64(r.span) * float64(m.r.Servers())); u > util {
				best, util = m.name, u
			}
		}
		fmt.Fprintf(&b, " %s %.2f |", best, util)
	}
	b.WriteString("\n| cores in use | | busiest host |")
	for _, r := range runs {
		host, cores := r.busiestHost()
		fmt.Fprintf(&b, " %s %.2f |", host.Name(), cores)
	}
	b.WriteString("\n\nNo row: ")
	var free []string
	for k, name := range model.KindNames {
		if !charged[k] {
			free = append(free, name)
		}
	}
	b.WriteString(strings.Join(free, ", ") + ".\n")
	return b.String()
}

// demand returns, per node, the service its CPU and all its application
// threads delivered over the window, in cores: what the host would need
// were each thread a core of its own.
func (r ledgerRun) demand() map[*fabric.Node]float64 {
	cores := map[*fabric.Node]float64{}
	for j, m := range r.ms {
		if m.node != nil {
			cores[m.node] += float64(r.after[j].served-r.before[j].served) / float64(r.span)
		}
	}
	return cores
}

// busiestHost returns the node of the largest demand and that demand, the
// first such node in the world's order on a tie.
func (r ledgerRun) busiestHost() (*fabric.Node, float64) {
	cores := r.demand()
	var host *fabric.Node
	for _, m := range r.ms {
		if m.node != nil && (host == nil || cores[m.node] > cores[host]) {
			host = m.node
		}
	}
	return host, cores[host]
}

const ledgerBegin, ledgerEnd = "<!-- cost ledger: rendered from internal/bench/cost_test.go -->\n", "<!-- end of cost ledger -->"

// ledgerRuns measures every ledger shape once per test binary: the
// ledger and the core demand read the same runs.
var ledgerRuns []ledgerRun

func measureLedger(t *testing.T) []ledgerRun {
	t.Helper()
	if ledgerRuns == nil {
		runs := make([]ledgerRun, len(ledgerShapes))
		for i, s := range ledgerShapes {
			runs[i] = s.run(t)
		}
		ledgerRuns = runs
	}
	return ledgerRuns
}

// TestCostLedger measures every ledger shape and asserts that
// docs/ARCHITECTURE.md holds the ledger between its markers. It only
// observes: the snapshots read the resources and charge nothing.
func TestCostLedger(t *testing.T) {
	got := renderLedger(measureLedger(t))
	t.Logf("µs per request:\n%s", got)
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(data), ledgerBegin)
	block, _, ok := strings.Cut(block, ledgerEnd)
	if !ok || block != got {
		t.Errorf("docs/ARCHITECTURE.md does not hold the cost ledger; paste this block under \"Cost ledger\":\n%s%s%s", ledgerBegin, got, ledgerEnd)
	}
}

// demandShapes are the benchmark's other replicated workloads with fewer
// ops, beside the ledger's columns: large-rubin, reads-rubin and
// open-rubin.
var demandShapes = []ledgerShape{
	loadShape("large RUBIN", transport.KindRDMA, 0, workload.Config{
		Users: 32, Ops: 700, Warmup: 70, Keys: workload.NewUniform(64),
		Mix: workload.Mix{ReadPct: 10, WritePct: 90}, Arrival: workload.Closed(1, 0), ValueSize: 32 << 10,
	}),
	loadShape("reads RUBIN", transport.KindRDMA, 2*sim.Millisecond, workload.Config{
		Users: 96, Ops: 4000, Warmup: 400, Keys: workload.NewZipf(1024, 0.9),
		Mix: workload.Mix{ReadPct: 95, WritePct: 5}, Arrival: workload.Closed(1, 0), ValueSize: 128,
	}),
	loadShape("open RUBIN", transport.KindRDMA, 0, workload.Config{
		Users: 256, Ops: 3000, Warmup: 300, Keys: workload.NewUniform(1024),
		Mix: workload.Mix{ReadPct: 45, WritePct: 45, ScanPct: 5, DeletePct: 5}, Arrival: workload.Poisson(30000), ValueSize: 128,
	}),
}

// overCores names the shapes whose busiest host demands more than its
// cores — its CPU's busy cores plus every application thread, each a
// server of its own that takes none of them (ROADMAP O30) — each with its
// reading. A saturated replica group keeps two selectors per pillar and
// its CPU busy at once.
var overCores = map[string]bool{
	"PBFT RUBIN 1KB": true, "PBFT NIO 1KB": true, "COP K=4 RUBIN 64KB": true, "COP K=4 NIO 64KB": true,
	"small RUBIN": true, "small NIO": true,
}

// TestCoreDemand reads, for every ledger shape and the benchmark's other
// replicated workloads, each host's CPU busy time plus the busy time of all
// its application threads over the measured window, in cores, and holds
// the busiest host to model.Host.Cores — except the shapes overCores
// names, which must still be above it (a list that goes stale fails too).
// The model does not make a thread take a core, so a point above is a
// finding about the model, not a failure of the run.
func TestCoreDemand(t *testing.T) {
	cores := float64(model.Default().Host.Cores)
	runs := measureLedger(t)
	shapes := slices.Concat(ledgerShapes, demandShapes)
	for _, s := range demandShapes {
		runs = append(runs, s.run(t))
	}
	for i, r := range runs {
		host, demand := r.busiestHost()
		name := shapes[i].name
		var parts []string
		for j, m := range r.ms {
			if m.node == host {
				parts = append(parts, fmt.Sprintf("%s %.2f", m.name, float64(r.after[j].served-r.before[j].served)/float64(r.span)))
			}
		}
		t.Logf("%-20s %.2f cores in use of %.0f: %s", name, demand, cores, strings.Join(parts, ", "))
		if over := demand > cores; over != overCores[name] {
			t.Errorf("%s: %s demands %.2f cores of %.0f; overCores says above: %v", name, host.Name(), demand, cores, overCores[name])
		}
	}
}
