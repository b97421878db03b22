package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rubin/internal/chaos"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// virtual holds every virtual-clock number of one rep. The struct is
// comparable on purpose: determinism is this system's correctness
// contract, so two reps of one (commit, seed) must be ==, traced or not.
type virtual struct {
	P50, P99, Mean sim.Time // intended arrival -> reply quorum (echo: send -> echo)
	MaxGap         sim.Time // longest interval between consecutive completions in the measured span
	Span           sim.Time // first measured arrival -> last measured completion
	Measured       int
	Issued         int
	Completed      int
	Events         uint64 // sim.Loop.Processed over set-up and run
}

func (v virtual) goodput() float64 { return float64(v.Measured) / v.Span.Seconds() }

// rep is the outcome of one scenario built from scratch, run and checked.
type rep struct {
	virt       virtual
	setupS     float64 // wall time of the deployment build
	runS       float64 // wall time inside Driver.Run (echo: the echo loop)
	checkS     float64 // wall time of the oracles
	setupAlloc uint64  // TotalAlloc delta across the build
	runAlloc   uint64  // TotalAlloc delta across the run
	runMallocs uint64
	runEvents  uint64             // sim.Loop.Processed across the run
	runSpan    sim.Time           // virtual time the run advanced the loop by
	layers     map[string]float64 // counters read from outside; traced reps only
}

func (r rep) ops() int { return r.virt.Issued }

// fold fills in the latency numbers from the recorder of measured-op
// latencies, and the span and the longest service gap. done holds
// completion times in completion order, starting with the last completion
// before the first measured one (with no warm-up: the first measured one),
// so every gap lies between two consecutive completions and none is an
// op's own latency. end is the last measured completion.
func (v *virtual) fold(start, end sim.Time, done []sim.Time, lat *metrics.Recorder) {
	v.Measured = lat.Count()
	v.P50, v.P99, v.Mean = lat.Percentile(50), lat.Percentile(99), lat.Mean()
	v.MaxGap = maxGap(done)
	v.Span = end - start
}

// maxGap is the longest interval between consecutive completions: time
// without service.
func maxGap(done []sim.Time) sim.Time {
	var gap sim.Time
	for i := 1; i < len(done); i++ {
		gap = max(gap, done[i]-done[i-1])
	}
	return gap
}

// hostPhase measures the wall time and allocation of one phase.
type hostPhase struct {
	t0 time.Time
	ms runtime.MemStats
}

func beginPhase() *hostPhase {
	p := &hostPhase{}
	runtime.ReadMemStats(&p.ms)
	p.t0 = time.Now()
	return p
}

func (p *hostPhase) end() (seconds float64, alloc, mallocs uint64) {
	seconds = time.Since(p.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return seconds, ms.TotalAlloc - p.ms.TotalAlloc, ms.Mallocs - p.ms.Mallocs
}

// runRep builds the workload's deployment from the layers' public
// functions, drives it, and checks every oracle. ins is nil on the
// untraced reps the end-to-end metrics come from.
func runRep(sp spec, seed int64, ins *instruments) (rep, error) {
	if sp.echo {
		return runEcho(sp, seed, ins)
	}
	return runReplicated(sp, seed, ins)
}

// ---------------------------------------------------------------------------
// Echo (paper Fig. 4): transport.NewStack / Dial / Send, nothing above.
// ---------------------------------------------------------------------------

// echoPoolSize is the random byte pool payloads are sliced from, so a
// payload costs two rng draws, not a kilobyte of them.
const echoPoolSize = 1 << 20

func runEcho(sp spec, seed int64, ins *instruments) (rep, error) {
	var r rep
	setup := beginPhase()
	sid := ins.begin("bench.setup", -1)
	loop := sim.NewLoop(seed)
	nw := fabric.New(loop, model.Default())
	cn, sn := nw.AddNode("client"), nw.AddNode("server")
	link := nw.Connect(cn, sn)
	opts := transport.DefaultOptions()
	opts.Batch = sp.batch
	id := ins.begin("transport.NewStack", sid)
	cs, err := transport.NewStack(sp.kind, cn, opts)
	if err != nil {
		return r, err
	}
	ss, err := transport.NewStack(sp.kind, sn, opts)
	if err != nil {
		return r, err
	}
	ins.end(id)
	id = ins.begin("transport.Dial", sid)
	var server, client transport.Conn
	if err := ss.Listen(9, func(c transport.Conn) {
		server = c
		c.OnMessage(func(msg []byte) { _ = c.Send(msg) }) // a failed echo surfaces as a missing completion
	}); err != nil {
		return r, err
	}
	var dialErr error
	loop.Post(func() {
		cs.Dial(sn, 9, func(c transport.Conn, err error) { client, dialErr = c, err })
	})
	loop.Run()
	ins.end(id)
	if dialErr != nil || client == nil || server == nil {
		return r, fmt.Errorf("echo set-up failed: %v", dialErr)
	}
	ins.end(sid)
	r.setupS, r.setupAlloc, _ = setup.end()
	// Generating the input is the benchmark's work, not the program's
	// set-up, so it is not timed as such.
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, echoPoolSize)
	rng.Read(pool)

	type flight struct {
		off, n int
		at     sim.Time
	}
	total := sp.ops + sp.warm
	var (
		inflight []flight
		head     int
		mismatch int
		sendErrs int
		start    sim.Time
		v        virtual
	)
	done, lat := make([]sim.Time, 1, sp.ops+1), metrics.NewRecorder() // done[0]: the last warm-up echo
	inflight = make([]flight, 0, total)
	sendMsg := client.Send
	if ins != nil {
		sendMsg = func(msg []byte) error {
			t0 := time.Now()
			err := client.Send(msg)
			ins.note(&ins.invoke, "workload.invoke", t0)
			return err
		}
	}
	send := func() {
		if v.Issued == sp.warm {
			start = loop.Now()
		}
		v.Issued++
		n := sp.sizeLo + rng.Intn(sp.size-sp.sizeLo+1)
		off := rng.Intn(echoPoolSize - n)
		inflight = append(inflight, flight{off, n, loop.Now()})
		if err := sendMsg(pool[off : off+n]); err != nil {
			sendErrs++
		}
	}
	client.OnMessage(func(msg []byte) {
		f := inflight[head]
		head++
		if !bytes.Equal(msg, pool[f.off:f.off+f.n]) {
			mismatch++
		}
		v.Completed++
		if v.Completed > sp.warm {
			done = append(done, loop.Now())
			lat.Record(loop.Now() - f.at)
		} else {
			done[0] = loop.Now()
		}
		if v.Issued < total {
			send()
		}
	})
	c0 := readFabric(nw, []*fabric.Node{sn}, []*fabric.Link{link})
	runStart, events0 := loop.Now(), loop.Processed()
	run := beginPhase()
	rid := ins.beginRun()
	loop.Post(func() {
		for i := 0; i < sp.window && v.Issued < total; i++ {
			send()
		}
	})
	loop.Run()
	ins.end(rid)
	r.runS, r.runAlloc, r.runMallocs = run.end()
	r.runEvents, r.runSpan = loop.Processed()-events0, loop.Now()-runStart

	check := time.Now()
	cid := ins.begin("bench.check", -1)
	v.fold(start, done[len(done)-1], done, lat)
	v.Events = loop.Processed()
	r.virt = v
	switch {
	case v.Completed != total:
		err = fmt.Errorf("completed %d of %d echoes", v.Completed, total)
	case mismatch != 0:
		err = fmt.Errorf("%d echoed payloads differ from what was sent", mismatch)
	case sendErrs != 0:
		err = fmt.Errorf("%d sends failed on a healthy link", sendErrs)
	}
	ins.end(cid)
	r.checkS = time.Since(check).Seconds()
	if ins != nil {
		r.layers = map[string]float64{}
		readFabric(nw, []*fabric.Node{sn}, []*fabric.Link{link}).since(c0).report(r.layers, v, r.runSpan)
		r.layers["workload.history_ops"] = float64(v.Completed)
	}
	return r, err
}

// ---------------------------------------------------------------------------
// Replicated key-value store: pbft over msgnet over the chosen transport.
// ---------------------------------------------------------------------------

func runReplicated(sp spec, seed int64, ins *instruments) (rep, error) {
	var r rep
	cfg := pbft.DefaultConfig()

	setup := beginPhase()
	sid := ins.begin("bench.setup", -1)
	id := ins.begin("pbft.NewCluster", sid)
	cluster, err := pbft.NewCluster(sp.kind, cfg, model.Default(), seed, ins.appFactory())
	ins.end(id)
	if err != nil {
		return r, err
	}
	id = ins.begin("pbft.Cluster.Start", sid)
	err = cluster.Start()
	ins.end(id)
	if err != nil {
		return r, err
	}
	ins.attach(cluster)
	clients := make([]*pbft.Client, conns)
	id = ins.begin("pbft.AddClient", sid)
	for i := range clients {
		if clients[i], err = cluster.AddClient(); err != nil {
			return r, err
		}
		if sp.fastReads {
			clients[i].EnableReadFastPath(cluster.Loop, readTimeout)
		}
	}
	ins.end(id)
	invoke := func(conn int, op []byte, done func([]byte)) string {
		if sp.fastReads {
			if code, _, _, err := kvstore.DecodeOp(op); err == nil && code == kvstore.OpGet {
				return clients[conn].InvokeRead(op, done)
			}
		}
		return clients[conn].Invoke(op, done)
	}
	var chooser workload.KeyChooser = workload.NewUniform(sp.keys)
	if sp.zipf > 0 {
		chooser = workload.NewZipf(sp.keys, sp.zipf)
	}
	id = ins.begin("workload.New", sid)
	driver, err := workload.New(cluster.Loop, workload.Config{
		Users: sp.users, Conns: conns, Ops: sp.ops, Warmup: sp.warm,
		Keys: chooser, Mix: sp.mix, Arrival: sp.arrival,
		ValueSize: sp.valueSize, Seed: seed,
	}, ins.wrapInvoker(invoke))
	ins.end(id)
	if err != nil {
		return r, err
	}
	if sp.fastReads {
		for _, cl := range clients {
			cl.SetReadPathHook(driver.NotePath)
		}
	}
	ins.attachDriver(driver)
	var sched *chaos.Schedule
	if sp.crash {
		// The script is relative to the start of the run, so requests
		// keep arriving on schedule through the outage.
		sched = chaos.Apply(cluster, chaos.NewScenario("leader-crash").
			Crash(crashAt, 0).Restart(restartAt, 0))
	}
	ins.end(sid)
	r.setupS, r.setupAlloc, _ = setup.end()

	nodes, links := clusterFabric(cluster)
	c0 := readFabric(cluster.Network, nodes, links)
	runStart, events0 := cluster.Loop.Now(), cluster.Loop.Processed()
	run := beginPhase()
	rid := ins.beginRun()
	runErr := driver.Run()
	ins.end(rid)
	r.runS, r.runAlloc, r.runMallocs = run.end()
	r.runEvents, r.runSpan = cluster.Loop.Processed()-events0, cluster.Loop.Now()-runStart

	check := time.Now()
	cid := ins.begin("bench.check", -1)
	ops := driver.History().Ops()
	start, end := driver.MeasuredSpan()
	v := virtual{Issued: driver.Issued(), Completed: driver.Completed(), Events: cluster.Loop.Processed()}
	// The history is in completion order. Late warm-up completions inside
	// the measured span are service too, so they stay in.
	first := 0
	for first < len(ops) && !ops[first].Measured {
		first++
	}
	done := make([]sim.Time, 0, sp.ops+1)
	for _, op := range ops[max(first-1, 0):] {
		done = append(done, op.Return)
	}
	v.fold(start, end, done, driver.Latencies())
	r.virt = v
	hid := ins.begin("workload.History.Check", cid)
	histErr := driver.History().Check()
	ins.end(hid)
	err = errors.Join(runErr, histErr, checkCluster(sp, cluster, clients, sched))
	ins.end(cid)
	r.checkS = time.Since(check).Seconds()
	if ins != nil {
		r.layers = map[string]float64{}
		readFabric(cluster.Network, nodes, links).since(c0).report(r.layers, v, r.runSpan)
		ins.reportCluster(r.layers, sp, cluster, clients, driver, sched, runStart)
	}
	return r, err
}

// checkCluster is the replica-level oracle, read from outside: every
// op answered, no send failed on a healthy network, all live replicas
// agree on state and sequence, the fault script ran clean and — on the
// crash workload — the fault really exercised view change and transfer.
func checkCluster(sp spec, c *pbft.Cluster, clients []*pbft.Client, sched *chaos.Schedule) error {
	var errs []error
	for _, cl := range clients {
		if n := cl.Outstanding(); n != 0 {
			errs = append(errs, fmt.Errorf("client %d left %d invocations outstanding", cl.ID(), n))
		}
		if n := cl.SendErrors(); n != 0 && !sp.crash {
			errs = append(errs, fmt.Errorf("client %d: %d request sends failed", cl.ID(), n))
		}
	}
	if !sp.crash {
		if n := c.SendFaults(); n != 0 {
			errs = append(errs, fmt.Errorf("%d send faults on a healthy network", n))
		}
		for i, mesh := range c.Meshes {
			if n := mesh.SendErrors(); n != 0 {
				errs = append(errs, fmt.Errorf("replica %d mesh: %d send errors", i, n))
			}
		}
	}
	for i := 1; i < len(c.Replicas); i++ {
		if c.Replicas[i].Executed() != c.Replicas[0].Executed() {
			errs = append(errs, fmt.Errorf("replica %d executed %d, replica 0 executed %d",
				i, c.Replicas[i].Executed(), c.Replicas[0].Executed()))
		}
		if c.Apps[i].Snapshot() != c.Apps[0].Snapshot() {
			errs = append(errs, fmt.Errorf("replica %d state digest differs from replica 0", i))
		}
	}
	if sched != nil {
		if err := sched.Err(); err != nil {
			errs = append(errs, err)
		}
		if len(sched.Trace()) != 2 {
			errs = append(errs, fmt.Errorf("fault script fired %d of 2 events", len(sched.Trace())))
		}
		if c.Replicas[0].View() == 0 || c.Replicas[0].StateTransfers() == 0 {
			errs = append(errs, fmt.Errorf("fault did not happen: replica 0 at view %d after %d state transfers",
				c.Replicas[0].View(), c.Replicas[0].StateTransfers()))
		}
	}
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// fabric counters, read from outside
// ---------------------------------------------------------------------------

// clusterFabric names the replica nodes and every link of the deployment.
func clusterFabric(c *pbft.Cluster) (replicas []*fabric.Node, links []*fabric.Link) {
	nw := c.Network
	for i := 0; i < c.Config.N; i++ {
		replicas = append(replicas, nw.Node(fmt.Sprintf("r%d", i)))
	}
	for i, a := range replicas {
		for _, b := range replicas[i+1:] {
			links = append(links, nw.Link(a, b))
		}
		for _, cl := range c.Clients {
			links = append(links, nw.Link(nw.Node(fmt.Sprintf("client%d", cl.ID())), a))
		}
	}
	return replicas, links
}

// fabricCounters is a snapshot of fabric.Node.CPU/NIC busy time on the
// server-side nodes and fabric.Link.Frames/Bytes/Dropped on every link.
type fabricCounters struct {
	cpu, nic               []sim.Time // per node, in the order given
	cores, engines         int
	frames, bytes, dropped uint64
}

func readFabric(nw *fabric.Network, nodes []*fabric.Node, links []*fabric.Link) fabricCounters {
	host := nw.Params().Host
	c := fabricCounters{cores: host.Cores, engines: host.NICEngines}
	for _, n := range nodes {
		c.cpu = append(c.cpu, n.CPU.BusyTotal())
		c.nic = append(c.nic, n.NIC.BusyTotal())
	}
	for _, l := range links {
		c.frames += l.Frames()
		c.bytes += l.Bytes()
		c.dropped += l.Dropped()
	}
	return c
}

func (c fabricCounters) since(base fabricCounters) fabricCounters {
	for i := range c.cpu {
		c.cpu[i] -= base.cpu[i]
		c.nic[i] -= base.nic[i]
	}
	c.frames -= base.frames
	c.bytes -= base.bytes
	c.dropped -= base.dropped
	return c
}

// report writes the fabric layer's metrics: node 0 is the view-0 leader
// (echo: the server), span is the virtual length of the run.
func (c fabricCounters) report(out map[string]float64, v virtual, span sim.Time) {
	ops := float64(v.Issued)
	var cpu, nic, backupMax, nicMax sim.Time
	for i := range c.cpu {
		cpu += c.cpu[i]
		nic += c.nic[i]
		if i > 0 && c.cpu[i] > backupMax {
			backupMax = c.cpu[i]
		}
		if c.nic[i] > nicMax {
			nicMax = c.nic[i]
		}
	}
	out["fabric.frames_per_op"] = float64(c.frames) / ops
	out["fabric.wire_bytes_per_op"] = float64(c.bytes) / ops
	out["fabric.dropped_frames"] = float64(c.dropped)
	out["fabric.cpu_busy_us_per_op"] = cpu.Micros() / ops
	out["fabric.nic_busy_us_per_op"] = nic.Micros() / ops
	out["fabric.leader_cpu_util"] = float64(c.cpu[0]) / (float64(span) * float64(c.cores))
	out["fabric.backup_cpu_util_max"] = float64(backupMax) / (float64(span) * float64(c.cores))
	out["fabric.nic_util_max"] = float64(nicMax) / (float64(span) * float64(c.engines))
}
