package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// meter is one resource of a simulated world as a cost table reads it: the
// role its host plays (leader, backup, client or server; every NIC is role
// NIC and every link direction role link), what it is (CPU, app, NIC or
// wire) and the resource itself.
type meter struct {
	name, role, res string
	r               *sim.Resource
}

// meters lists every resource of nw. roleOf names the role of a node's CPU
// and of each of its application threads, thread k at index k.
func meters(nw *fabric.Network, roleOf func(*fabric.Node) (cpu string, threads []string)) []meter {
	var ms []meter
	nodes := nw.Nodes()
	for _, n := range nodes {
		cpu, threads := roleOf(n)
		ms = append(ms, meter{n.Name() + "/cpu", cpu, "CPU", n.CPU})
		for k, role := range threads {
			name := n.Name() + "/app"
			if k > 0 {
				name += fmt.Sprint(k)
			}
			ms = append(ms, meter{name, role, "app", n.Thread(k)})
		}
		ms = append(ms, meter{n.Name() + "/nic", "NIC", "NIC", n.NIC})
	}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if l := nw.Link(a, b); l != nil {
				ms = append(ms, meter{a.Name() + "->" + b.Name(), "link", "wire", l.Wire(a)}, meter{b.Name() + "->" + a.Name(), "link", "wire", l.Wire(b)})
			}
		}
	}
	return ms
}

// roles gives a deployment's hosts their roles: pillar k's thread is the
// leader's if it hosts group k's leader, and a host's CPU is the leader's
// if any of its pillars is. Every other node is a front-end, a client.
func (d *deployment) roles(n *fabric.Node) (string, []string) {
	i := slices.Index(d.hosts, n)
	if i < 0 {
		return "client", []string{"client"}
	}
	cpu, threads := "backup", make([]string, len(d.groups))
	for k, g := range d.groups {
		threads[k] = "backup"
		if g.Replicas[i].IsLeader() {
			threads[k], cpu = "leader", "leader"
		}
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
func echoRoles(n *fabric.Node) (string, []string) { return n.Name(), []string{n.Name()} }

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

// TestChargeKinds drives one echo and one PBFT request on each stack, from
// a world already set up, and pins which kinds land on which resource: on
// the application threads the socket calls or the verbs work, RUBIN's
// dispatch and the per-message handling; on the CPU the kernel's interrupt,
// segment and wakeup work, NIO's dispatch (ROADMAP O26), and the protocol's
// MACs, digests, ordering and execution; on the NIC only the RNIC's DMA and
// completions; on the links only the wire. Set-up is over before the
// snapshot, so neither set-up kind shows there; connecting the echo charged
// them — rdma_cm's call and the MR registrations on the CPU, the TCP dial's
// call on the application thread.
func TestChargeKinds(t *testing.T) {
	type want struct{ app, cpu, nic []string }
	verbs := []string{"MsgHandle", "completion", "receive copy", "select dispatch", "verbs post"}
	sockets := []string{"MsgHandle", "socket read", "socket write"}
	kernel := []string{"interrupt", "segment", "select dispatch", "wakeup"}
	protocol := []string{"MAC", "digest", "execute", "order"}
	rnic := []string{"DMA", "completion"}
	for _, tc := range []struct {
		kind       transport.Kind
		echo, pbft want
		setupOn    string   // where connecting the echo charged its set-up kinds
		setup      []string // every kind it charged there
	}{
		{transport.KindRDMA, want{verbs, nil, rnic}, want{verbs, protocol, rnic}, "CPU", []string{"MR set-up", "connection set-up"}},
		{transport.KindTCP, want{sockets, kernel, nil}, want{sockets, slices.Concat(protocol, kernel), nil}, "app", []string{"connection set-up"}},
	} {
		check := func(shape string, w want, got map[string][]string) {
			t.Helper()
			slices.Sort(w.cpu)
			for _, c := range []struct {
				class string
				want  []string
			}{{"app", w.app}, {"CPU", w.cpu}, {"NIC", w.nic}, {"link", []string{"wire"}}} {
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

		d, err := deploy(deploySpec{kind: tc.kind, seed: 1, conns: 1}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
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
		check("PBFT request", tc.pbft, kindsOn(ms, before, snapshot(ms)))
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

// smallShape is the small-rubin / small-nio load with fewer ops: 96 users
// in closed loop over four front-ends, 128 B values, mixed operations on
// 1024 keys at Zipf 0.9. It saturates the group, which is where batching
// shows.
func smallShape(name string, kind transport.Kind) ledgerShape {
	return ledgerShape{name, func(t *testing.T) ledgerRun {
		d, err := deploy(deploySpec{kind: kind, seed: 1, conns: 4}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		const warm, measured = 300, 3000
		w := newLedgerWindow(d.loop, meters(d.nw, d.roles), warm, measured)
		drv, err := workload.New(d.loop, workload.Config{
			Users: 96, Conns: 4, Ops: measured, Warmup: warm, Keys: workload.NewZipf(1024, 0.9),
			Mix: workload.Mix{ReadPct: 45, WritePct: 45, ScanPct: 5, DeletePct: 5}, Arrival: workload.Closed(1, 0),
			ValueSize: 128, Seed: 1,
		}, func(conn int, op []byte, done func([]byte)) string {
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
	ledgerResources = []string{"app", "CPU", "NIC", "wire"}
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

const ledgerBegin, ledgerEnd = "<!-- cost ledger: rendered from internal/bench/cost_test.go -->\n", "<!-- end of cost ledger -->"

// TestCostLedger measures every ledger shape and asserts that
// docs/ARCHITECTURE.md holds the ledger between its markers. It only
// observes: the snapshots read the resources and charge nothing.
func TestCostLedger(t *testing.T) {
	runs := make([]ledgerRun, len(ledgerShapes))
	for i, s := range ledgerShapes {
		runs[i] = s.run(t)
	}
	got := renderLedger(runs)
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
