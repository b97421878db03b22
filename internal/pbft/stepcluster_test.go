package pbft

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// stepCluster is a started PBFT group whose every message and timer is a
// step the test chooses (docs/ARCHITECTURE.md, "Protocol tests"). Every
// envelope and client reply a replica sends leaves through deferSend, so an
// outbox that records it and returns nil captures all traffic; a step
// delivers one captured envelope with handleEnvelope, submits a request with
// handleRequest on the client's connection, fires a progress timer through
// onProgress, or settles — runs the continuations, batch timers and a
// leader's paced proposals, short of the earliest armed progress deadline.
// Nothing a replica sends reaches a transport, so the loop holds only those
// timers and continuations, and whatever a test itself sends on a client's
// connection. Loop.Run never returns once a timer is held back (see
// newStepCluster): settle is the harness's run.
type stepCluster struct {
	*Cluster
	t       *testing.T
	pending []envelope // captured replica-to-replica envelopes not yet delivered, in send order
	done    []envelope // delivered envelopes, in delivery order
	replies []envelope // captured client replies
	log     []byte     // every capture: instant, sender, recipient, bytes
	sent    int        // captures so far
	ran     script     // the steps taken so far
	aside   string     // the first action the test took outside the steps, if any
	value   string     // what a submitted put writes

	byzantine []Outbox    // byzantine[i], if set, rewrites or drops what replica i sends before it is captured
	chosen    int         // the replica whose timer fire lets expire, or -1
	expired   bool        // the chosen timer expired
	held      []sim.Timer // held[i]: replica i's timer, held back when it fell due unchosen
}

// envelope is the nth captured send: to is a replica id, or -1 for a
// reply, which went to conn. payload is the message without its
// authenticator.
type envelope struct {
	n, from, to  int
	conn         *msgnet.Peer
	raw, payload []byte
}

func (e envelope) typ() MsgType { return MsgType(e.payload[0]) }

func (e envelope) msg() Message { m, _ := Decode(e.payload); return m }

// never is where a held-back timer waits: no step runs the loop to it.
const never = sim.Time(math.MaxInt64)

// newStepCluster starts a group of cfg.N replicas over kind with one
// registered client, id 100, and captures their traffic from then on, a
// restarted replica's included. A replica's progress timer that falls due
// while another's is being fired, or while the test settles, is held back —
// re-armed at never — until the test fires it: which timer expires first is
// the test's choice. AddClient runs the loop to connect a client, which
// never ends once a timer is held back: add one before the first step.
func newStepCluster(t *testing.T, kind transport.Kind, cfg Config) *stepCluster {
	t.Helper()
	c := newTestCluster(t, kind, cfg, 1)
	h := &stepCluster{Cluster: c, t: t, value: "v", byzantine: make([]Outbox, cfg.N), chosen: -1, held: make([]sim.Timer, cfg.N)}
	for i, rep := range c.Replicas {
		h.attach(i, rep)
	}
	c.OnRestart = func(i int, rep *Replica) { h.outside("Restart"); h.attach(i, rep) }
	return h
}

// Crash stops replica i, an action outside the steps.
func (h *stepCluster) Crash(i int) { h.outside("Crash"); h.Cluster.Crash(i) }

// outside notes, the first time, an action the test took on the cluster
// other than a step: the script of a failure after it does not replay
// alone.
func (h *stepCluster) outside(what string) {
	if h.aside == "" {
		h.aside = what
	}
}

// attach captures what replica i sends and lets its progress timer expire
// only when the test fires it.
func (h *stepCluster) attach(i int, rep *Replica) {
	rep.SetOutbox(func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		if o := h.byzantine[i]; o != nil {
			h.outside("a Byzantine outbox")
			env, _ = o(to, env)
		}
		if env != nil {
			h.capture(envelope{from: i, to: slices.Index(rep.peers, to), conn: to, raw: bytes.Clone(env)})
		}
		return nil, 0
	})
	expire := rep.onProgress
	rep.onProgress = func() {
		if i != h.chosen && rep.deadline() <= h.Loop.Now() {
			rep.progress = h.Loop.At(never, rep.onProgress)
			h.held[i] = rep.progress
			return
		}
		demanded, changing := rep.demanded, rep.viewChanging
		if expire(); rep.demanded != demanded || rep.viewChanging != changing {
			h.expired = true
		}
	}
}

func (h *stepCluster) capture(e envelope) {
	e.n, e.payload = h.sent, e.raw
	h.sent++
	if e.to >= 0 {
		_, e.payload, _ = openEnvelope(e.raw, func(int, []byte) {})
		h.pending = append(h.pending, e)
	} else {
		h.replies = append(h.replies, e)
	}
	h.log = fmt.Appendf(h.log, "%d %d→%d %x\n", h.Loop.Now(), e.from, e.to, e.raw)
}

// putRequest is client 100's request ts as a step cluster submits it with
// its value unchanged, "v".
func putRequest(ts uint64) Request {
	return Request{Client: 100, Timestamp: ts, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
}

// deliver hands pending envelope i to its recipient.
func (h *stepCluster) deliver(i int) {
	h.ran = append(h.ran, deliver(i))
	if i >= len(h.pending) {
		h.fatalf("deliver(%d): %d envelopes pending", i, len(h.pending))
	}
	e := h.pending[i]
	h.pending = slices.Delete(h.pending, i, i+1)
	h.done = append(h.done, e)
	h.Replicas[e.to].handleEnvelope(e.raw)
}

// fire runs the loop until replica r's progress timer expires — a firing
// that only re-arms it is none — and returns the instant it did.
func (h *stepCluster) fire(r int) sim.Time {
	h.ran = append(h.ran, fire(r))
	rep := h.Replicas[r]
	h.chosen, h.expired = r, false
	defer func() { h.chosen = -1 }()
	if rep.progress.Pending() && rep.progress == h.held[r] {
		rep.progress.Cancel()
		rep.onProgress()
	}
	for !h.expired {
		if !rep.progress.Pending() {
			h.fatalf("fire(%d): the replica's progress timer is idle", r)
		}
		h.Loop.Step()
	}
	return h.Loop.Now()
}

// submit files client 100's request ts, a put of h.value to k, at the
// replicas in to, on the client's connection to each, so their replies are
// captured.
func (h *stepCluster) submit(ts uint64, to ...int) {
	h.ran = append(h.ran, submit(ts, to...))
	if h.value != "v" {
		h.outside("a put of another value")
	}
	for _, i := range to {
		h.Replicas[i].handleRequest(Request{Client: 100, Timestamp: ts, Op: kvstore.EncodeOp(kvstore.OpPut, "k", h.value)}, h.inboundClient[i][0])
	}
}

// settle runs the continuations due within d, or with d 0 until only
// timers are left — progress timers and state fetches' retries — stopping
// short of the earliest progress deadline armed and not held back. With
// d > 0 it leaves the clock d later, or just short of that deadline.
func (h *stepCluster) settle(d sim.Time) {
	h.ran = append(h.ran, settle(d))
	end := never
	if d > 0 {
		end = h.Loop.Now() + d
	}
	for {
		limit, armed := end, 0
		if d > 0 {
			limit++
		}
		for i, rep := range h.Replicas {
			if rep.fetch.retry.Pending() {
				armed++
			}
			if rep.progress.Pending() {
				armed++
				if rep.progress != h.held[i] {
					limit = min(limit, rep.deadline())
				}
			}
		}
		if h.Loop.Pending() == armed {
			if d > 0 {
				h.Loop.RunUntil(limit - 1)
			}
			return
		}
		reached := false
		stop := h.Loop.At(limit-1, func() { reached = true })
		if h.Loop.Step(); reached {
			return
		}
		stop.Cancel()
	}
}

// deliverAll delivers, in send order, every pending envelope match accepts
// — those the deliveries send included — until none is left.
func (h *stepCluster) deliverAll(match func(envelope) bool) {
	for i := 0; i < len(h.pending); {
		if match(h.pending[i]) {
			h.deliver(i)
		} else {
			i++
		}
	}
}

// everything matches every envelope.
func everything(envelope) bool { return true }

// drain alternates deliverAll and settle until no envelope match accepts is
// pending.
func (h *stepCluster) drain(match func(envelope) bool) {
	for {
		h.deliverAll(match)
		h.settle(0)
		if !slices.ContainsFunc(h.pending, match) {
			return
		}
	}
}

// inject delivers m to replica to, sealed as replica from sends it: the
// test plays a peer whose history it does not script, or a Byzantine one.
// The capture log records it; the script does not.
func (h *stepCluster) inject(from, to int, m Message) {
	h.outside("inject")
	env := sealedBy(h.Replicas[to], uint32(from), m)
	h.log = fmt.Appendf(h.log, "%d inject %d→%d %x\n", h.Loop.Now(), from, to, env)
	h.Replicas[to].handleEnvelope(env)
}

// state is what two runs of a script must agree on at replica i: its view,
// stable and executed points and application state, each live cell's
// sequence, digest, and whether it is prepared and committed, and the
// request rows.
func (h *stepCluster) state(i int) string {
	r := h.Replicas[i]
	b := fmt.Appendf(nil, "view %d stable %d executed %d app %x\n", r.view, r.stable, r.executed, h.Apps[i].Snapshot())
	for seq := r.stable + 1; seq <= r.stable+r.cfg.LogWindow; seq++ {
		if s := r.lookup(seq); s != nil {
			b = fmt.Appendf(b, "cell %d %x prepared %v committed %v\n", seq, s.pp.Digest, r.prepared(s), r.committedSlot(s))
		}
	}
	var rows []string
	for id, row := range r.requests {
		rows = append(rows, fmt.Sprintf("row %v seq %d state %d copy %x\n", id, row.seq, row.state, r.copyOf(row).digest))
	}
	slices.Sort(rows)
	return string(b) + strings.Join(rows, "")
}

// errorf and fatalf report a failure followed by the script taken so far,
// and the first action outside it, if the test took one.
func (h *stepCluster) errorf(format string, args ...any) {
	h.t.Helper()
	h.t.Errorf(format+"\nafter %v%s", append(args, h.ran, h.offScript())...)
}

func (h *stepCluster) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf(format+"\nafter %v%s", append(args, h.ran, h.offScript())...)
}

func (h *stepCluster) offScript() string {
	if h.aside == "" {
		return ""
	}
	return "\nplus actions outside the script (the first: " + h.aside + "): run alone does not replay them"
}

// A step is one choice of the test — deliver(i), fire(r), submit(ts,
// to...) or settle(d) — kept as the Go call that takes it: a script prints
// as Go that takes its steps again (see run).
type script []string

func deliver(i int) string     { return fmt.Sprintf("deliver(%d)", i) }
func fire(r int) string        { return fmt.Sprintf("fire(%d)", r) }
func settle(d sim.Time) string { return fmt.Sprintf("settle(%d)", d) }
func submit(ts uint64, to ...int) string {
	s := fmt.Sprint("submit(", ts)
	for _, i := range to {
		s += fmt.Sprint(", ", i)
	}
	return s + ")"
}

func (sc script) String() string { return "script{" + strings.Join(sc, ", ") + "}" }

var stepSyntax = regexp.MustCompile(`(deliver|fire|submit|settle)\(([-0-9, ]*)\)`)

// parseScript reads the steps of a printed script back.
func parseScript(text string) script { return stepSyntax.FindAllString(text, -1) }

// run takes the steps of sc in order.
func (h *stepCluster) run(sc script) {
	for _, s := range sc {
		f := strings.FieldsFunc(s, func(c rune) bool { return strings.ContainsRune("(), ", c) })
		a := make([]int, len(f)-1)
		for k := range a {
			a[k], _ = strconv.Atoi(f[k+1]) // parseScript let only digits through
		}
		switch f[0] {
		case "deliver":
			h.deliver(a[0])
		case "fire":
			h.fire(a[0])
		case "settle":
			h.settle(sim.Time(a[0]))
		case "submit":
			h.submit(uint64(a[0]), a[1:]...)
		}
	}
}

// answers returns the replicas that replied to request ts, in id order,
// one entry per reply, whatever the result.
func (h *stepCluster) answers(ts uint64) []int {
	var ids []int
	for _, e := range h.replies {
		if m, ok := e.msg().(Reply); ok && m.Timestamp == ts {
			ids = append(ids, e.from)
		}
	}
	slices.Sort(ids)
	return ids
}

// completed reports whether client 100 accepts request ts from the
// captured replies, by Client.handleReply's rule: F+1 replicas, each by its
// latest reply, returned byte-identical results.
func (h *stepCluster) completed(ts uint64) bool {
	latest := map[int]string{}
	for _, e := range h.replies {
		if m, ok := e.msg().(Reply); ok && m.Timestamp == ts {
			latest[e.from] = string(m.Result)
			n := 0
			for _, r := range latest {
				if r == string(m.Result) {
					n++
				}
			}
			if n > h.Config.F {
				return true
			}
		}
	}
	return false
}

// TestStepClusterReplaysAScript: the steps a scenario took print as a
// script that parses back into the same steps, and taken again on a fresh
// cluster they send the same bytes at the same instants and leave every
// replica in the same state.
func TestStepClusterReplaysAScript(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	for _, kind := range kinds() {
		first := newStepCluster(t, kind, cfg)
		reproposal(first, 2)
		sc := parseScript(first.ran.String())
		if !slices.Equal(sc, first.ran) {
			t.Fatalf("%s: the printed script parses back as %v, want %v", kind, sc, first.ran)
		}
		again := newStepCluster(t, kind, cfg)
		again.run(sc)
		if !bytes.Equal(first.log, again.log) {
			t.Errorf("%s: the second run's capture log differs from the first", kind)
		}
		for i := range cfg.N {
			if a, b := first.state(i), again.state(i); a != b {
				t.Errorf("%s: replica %d ends in\n%s\nthe first time and in\n%s\nthe second", kind, i, a, b)
			}
		}
	}
}
