package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// ---------------------------------------------------------------------------
// Key distributions
// ---------------------------------------------------------------------------

func countPicks(t *testing.T, c KeyChooser, draws int) []int {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	counts := make([]int, c.Keys())
	for i := 0; i < draws; i++ {
		k := c.Pick(r)
		if k < 0 || k >= c.Keys() {
			t.Fatalf("%s picked %d outside [0, %d)", c, k, c.Keys())
		}
		counts[k]++
	}
	return counts
}

func TestUniformSpreadsEvenly(t *testing.T) {
	counts := countPicks(t, NewUniform(16), 16000)
	for k, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("key %d drawn %d times, want ~1000", k, n)
		}
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	counts := countPicks(t, NewZipf(64, 0.99), 20000)
	uniformShare := 20000 / 64
	if counts[0] < 5*uniformShare {
		t.Errorf("hottest zipf key drawn %d times, want far above the uniform %d", counts[0], uniformShare)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[8] {
		t.Errorf("zipf popularity not decreasing: %d, %d, %d", counts[0], counts[1], counts[8])
	}
}

func TestZipfThetaZeroIsUniform(t *testing.T) {
	counts := countPicks(t, NewZipf(16, 0), 16000)
	for k, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("theta=0 key %d drawn %d times, want ~1000", k, n)
		}
	}
}

func TestZipfSingleKey(t *testing.T) {
	counts := countPicks(t, NewZipf(1, 0.5), 100)
	if counts[0] != 100 {
		t.Fatalf("single-key zipf drew %d of 100", counts[0])
	}
}

func TestChoosersAreDeterministic(t *testing.T) {
	for _, c := range []KeyChooser{NewUniform(32), NewZipf(32, 0.9)} {
		a := countPicks(t, c, 2000)
		b := countPicks(t, c, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s not deterministic per seed", c)
		}
		if c.String() == "" {
			t.Errorf("%T has empty description", c)
		}
	}
}

func TestChooserConstructorsPanicOnBadShape(t *testing.T) {
	for name, build := range map[string]func(){
		"uniform-zero": func() { NewUniform(0) },
		"zipf-theta-1": func() { NewZipf(8, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			build()
		}()
	}
}

// ---------------------------------------------------------------------------
// Mix and arrival models
// ---------------------------------------------------------------------------

func TestMixPickMatchesShares(t *testing.T) {
	m := Mix{ReadPct: 50, WritePct: 30, DeletePct: 10, ScanPct: 10}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	counts := map[Kind]int{}
	for i := 0; i < 10000; i++ {
		counts[m.Pick(r)]++
	}
	if counts[Read] < 4500 || counts[Read] > 5500 {
		t.Errorf("reads %d of 10000, want ~5000", counts[Read])
	}
	if counts[Scan] < 700 || counts[Scan] > 1300 {
		t.Errorf("scans %d of 10000, want ~1000", counts[Scan])
	}
	if m.String() != "r50/w30/d10/s10" {
		t.Errorf("String() = %q", m.String())
	}
}

func TestMixValidateRejectsBadShares(t *testing.T) {
	for _, m := range []Mix{
		{ReadPct: 101, WritePct: -1},
		{ReadPct: 50, WritePct: 40}, // sums to 90
		{ReadPct: 60, WritePct: 60}, // sums to 120
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %v accepted", m)
		}
	}
}

func TestArrivalValidate(t *testing.T) {
	for _, a := range []Arrival{
		Closed(1, 0), Closed(8, sim.Millisecond),
		Poisson(1000), Bursts(5000, sim.Millisecond, sim.Millisecond),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s rejected: %v", a, err)
		}
		if a.String() == "" {
			t.Error("empty arrival description")
		}
	}
	for _, a := range []Arrival{
		{}, Closed(0, 0), Closed(1, -1), Poisson(0), Bursts(100, 0, 0),
		{Model: "warp"},
	} {
		if err := a.Validate(); err == nil {
			t.Errorf("arrival %+v accepted", a)
		}
	}
}

func TestPoissonGapsMatchRate(t *testing.T) {
	clock := &arrivalClock{a: Poisson(10000)} // mean gap 100µs
	r := rand.New(rand.NewSource(3))
	var total sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		total += clock.gap(r)
	}
	mean := total / n
	if mean < 90*sim.Microsecond || mean > 110*sim.Microsecond {
		t.Errorf("mean poisson gap %v, want ~100µs", mean)
	}
}

func TestBurstGapsInsertOffPeriods(t *testing.T) {
	on, off := sim.Millisecond, 4*sim.Millisecond
	clock := &arrivalClock{a: Bursts(10000, on, off)}
	r := rand.New(rand.NewSource(3))
	var total sim.Time
	const n = 10000
	sawOff := false
	for i := 0; i < n; i++ {
		g := clock.gap(r)
		if g >= off {
			sawOff = true
		}
		total += g
	}
	if !sawOff {
		t.Fatal("no gap ever spanned an off period")
	}
	// 10000 arrivals at 10k/s fill ~1s of on time = ~1000 on periods,
	// each followed by 4ms off: the stream must stretch to ~5x.
	if total < 4*sim.Second || total > 6*sim.Second {
		t.Errorf("burst stream spans %v, want ~5s", total)
	}
}

// ---------------------------------------------------------------------------
// Driver against an in-process store
// ---------------------------------------------------------------------------

// fakeService executes operations against a single kvstore after a
// deterministic service delay, like a (non-replicated) server would:
// the execution instant is the linearization point.
type fakeService struct {
	loop  *sim.Loop
	store *kvstore.Store
	delay sim.Time
	calls int
}

func (s *fakeService) invoke(conn int, op []byte, done func([]byte)) string {
	s.calls++
	jitter := sim.Time(s.calls%7) * sim.Microsecond
	s.loop.After(s.delay+jitter, func() {
		done(s.store.Execute(op))
	})
	return ""
}

func testConfig(arrival Arrival) Config {
	return Config{
		Users: 20, Conns: 4, Ops: 400, Warmup: 40,
		Keys:    NewZipf(24, 0.9),
		Mix:     Mix{ReadPct: 35, WritePct: 35, DeletePct: 10, ScanPct: 10, TxnPct: 10},
		Arrival: arrival, ValueSize: 32, Seed: 9,
	}
}

func runDriver(t *testing.T, cfg Config) (*Driver, *fakeService) {
	t.Helper()
	loop := sim.NewLoop(1)
	svc := &fakeService{loop: loop, store: kvstore.New(), delay: 50 * sim.Microsecond}
	d, err := New(loop, cfg, svc.invoke)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d, svc
}

func TestDriverClosedLoop(t *testing.T) {
	cfg := testConfig(Closed(2, 10*sim.Microsecond))
	d, svc := runDriver(t, cfg)
	total := cfg.Ops + cfg.Warmup
	if d.Issued() != total || d.Completed() != total || svc.calls != total {
		t.Fatalf("issued/completed/calls = %d/%d/%d, want %d", d.Issued(), d.Completed(), svc.calls, total)
	}
	if d.measured != cfg.Ops || d.Latencies().Count() != cfg.Ops {
		t.Fatalf("measured %d ops, %d samples, want %d", d.measured, d.Latencies().Count(), cfg.Ops)
	}
	if d.History().Len() != total {
		t.Fatalf("history holds %d ops, want %d", d.History().Len(), total)
	}
	start, end := d.MeasuredSpan()
	if end <= start || d.Goodput() <= 0 {
		t.Fatalf("measured span [%v, %v], goodput %v", start, end, d.Goodput())
	}
	if err := d.History().Check(); err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, op := range d.History().Ops() {
		kinds[op.Kind]++
		if op.Invoke != op.Arrive {
			t.Fatal("closed-loop ops must not queue")
		}
	}
	for _, k := range []Kind{Read, Write, Delete, Scan, Txn} {
		if kinds[k] == 0 {
			t.Errorf("mix produced no %s ops", k)
		}
	}
	// One-phase transactions against a single store never conflict.
	if d.Aborted() != 0 {
		t.Fatalf("%d transactions aborted against a lock-free store", d.Aborted())
	}
	if d.CommittedGoodput() != d.Goodput() {
		t.Fatal("committed goodput diverged with zero aborts")
	}
}

func TestDriverTxnsRecordSubOps(t *testing.T) {
	cfg := testConfig(Closed(2, 0))
	cfg.Mix = Mix{WritePct: 30, TxnPct: 70}
	d, _ := runDriver(t, cfg)
	if err := d.History().Check(); err != nil {
		t.Fatal(err)
	}
	readers, writers := 0, 0
	for _, op := range d.History().Ops() {
		if op.Kind != Txn {
			continue
		}
		if op.Result != Committed {
			t.Fatalf("txn %q finished %q", op.Key, op.Result)
		}
		if len(op.Sub) != 2 || op.Sub[0].Key == op.Sub[1].Key {
			t.Fatalf("txn %q subs: %+v", op.Key, op.Sub)
		}
		switch op.Sub[0].Kind {
		case Read:
			readers++
			for _, s := range op.Sub {
				if s.Result == "" {
					t.Fatalf("committed reader txn %q has empty observation", op.Key)
				}
			}
		case Write:
			writers++
			for _, s := range op.Sub {
				if s.Value == "" {
					t.Fatalf("writer txn %q has empty value", op.Key)
				}
			}
		}
	}
	if readers == 0 || writers == 0 {
		t.Fatalf("mix produced %d reader and %d writer txns", readers, writers)
	}
}

func TestDriverOpenLoopQueuesBehindBusyUsers(t *testing.T) {
	cfg := testConfig(Poisson(2_000_000)) // far beyond the 50µs service time
	cfg.Users = 4
	d, _ := runDriver(t, cfg)
	if err := d.History().CheckLinearizable(); err != nil {
		t.Fatal(err)
	}
	queued := 0
	for _, op := range d.History().Ops() {
		if op.Invoke > op.Arrive {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("overloaded open loop never queued an arrival")
	}
	// Queueing delay must count into measured latency: with 4 users and
	// a 2M/s offered rate the p99 has to sit far above the service time.
	if p99 := d.Latencies().Percentile(99); p99 < 200*sim.Microsecond {
		t.Errorf("p99 %v does not reflect queueing", p99)
	}
}

func TestDriverBurstsComplete(t *testing.T) {
	cfg := testConfig(Bursts(100000, 500*sim.Microsecond, 2*sim.Millisecond))
	d, _ := runDriver(t, cfg)
	if err := d.History().CheckLinearizable(); err != nil {
		t.Fatal(err)
	}
	if d.Completed() != cfg.Ops+cfg.Warmup {
		t.Fatalf("completed %d", d.Completed())
	}
}

func TestDriverDeterministicPerSeed(t *testing.T) {
	for _, arrival := range []Arrival{Closed(2, 0), Poisson(100000)} {
		a, _ := runDriver(t, testConfig(arrival))
		b, _ := runDriver(t, testConfig(arrival))
		if !reflect.DeepEqual(a.History().Ops(), b.History().Ops()) {
			t.Errorf("%s: same-seed histories differ", arrival)
		}
	}
}

// TestDriverWriteValuesUniqueAndPadded: every put carries its stem padded
// to ValueSize, and the history keeps the stem alone, unique per write.
func TestDriverWriteValuesUniqueAndPadded(t *testing.T) {
	cfg := testConfig(Closed(1, 0))
	loop := sim.NewLoop(1)
	svc := &fakeService{loop: loop, store: kvstore.New(), delay: 50 * sim.Microsecond}
	sent := map[string]bool{}
	d, err := New(loop, cfg, func(conn int, op []byte, done func([]byte)) string {
		if code, _, value, err := kvstore.DecodeOp(op); err == nil && code == kvstore.OpPut {
			if len(value) != cfg.ValueSize {
				t.Fatalf("put value %q is not ValueSize long", value)
			}
			sent[strings.TrimRight(value, ".")] = true
		}
		return svc.invoke(conn, op, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range d.History().Ops() {
		if op.Kind != Write {
			continue
		}
		if !sent[op.Value] {
			t.Fatalf("history value %q is not the stem of a value put", op.Value)
		}
		if seen[op.Value] {
			t.Fatalf("duplicate write value %q", op.Value)
		}
		seen[op.Value] = true
	}
}

// TestWriteValueBytesPinned holds the generated values — the benchmark's
// input — to their definition: the stem, then dots up to ValueSize, encoded
// into the driver's scratch without an allocation of its own; the history
// keeps the stem.
func TestWriteValueBytesPinned(t *testing.T) {
	for _, size := range []int{0, 3, 8, 63, 64, 65, 128, 32 << 10} {
		d := &Driver{cfg: Config{ValueSize: size}}
		for _, c := range [][3]int{{0, 0, -1}, {7, 12, -1}, {95, 8799, 1}, {1 << 30, 1 << 40, 0}} {
			stem := fmt.Sprintf("u%d.%d", c[0], c[1])
			if c[2] >= 0 {
				stem = fmt.Sprintf("%s.%d", stem, c[2])
			}
			want := stem
			if pad := size - len(want); pad > 0 {
				want += strings.Repeat(".", pad)
			}
			if got := d.writeStem(c[0], c[1], c[2]); got != stem {
				t.Fatalf("writeStem(%v) = %q, want %q", c, got, stem)
			}
			if got := string(d.padded(stem)); got != want {
				t.Fatalf("padded(%q) at ValueSize %d = %q, want %q", stem, size, got, want)
			}
			if got := d.observed([]byte(want)); got != stem {
				t.Fatalf("a read of %q at ValueSize %d observed %q, want %q", want, size, got, stem)
			}
		}
		if raceflag.Enabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { d.padded("u7.12") }); allocs != 0 {
			t.Errorf("padded at ValueSize %d allocates %v times, want 0", size, allocs)
		}
	}
}

// TestObservedMarksWhatNoWriteStored: a reply is recorded as a stem only
// when it is byte for byte that stem's padded value; a bare stem, a value
// padded short or long, or one of only dots is recorded marked, so no write
// matches it.
func TestObservedMarksWhatNoWriteStored(t *testing.T) {
	d := &Driver{cfg: Config{ValueSize: 16}}
	for _, reply := range []string{"u3.9", "u3.9.........", "u3.9..............", "................"} {
		if got := d.observed([]byte(reply)); got != unpadded+reply {
			t.Errorf("reply %q observed %q, want it marked", reply, got)
		}
	}
	if got := d.observed([]byte("NOTFOUND")); got != Absent {
		t.Errorf("NOTFOUND observed %q, want Absent", got)
	}
}

// TestBareStemFailsTheOracle: a store that answers a get with the value's
// stem and drops its padding — the bytes the history keeps, not the bytes
// that were written — fails the linearizability check; the same run
// answered in full passes it.
func TestBareStemFailsTheOracle(t *testing.T) {
	for _, bare := range []bool{false, true} {
		cfg := testConfig(Closed(1, 0))
		cfg.Mix = Mix{ReadPct: 50, WritePct: 50}
		loop := sim.NewLoop(1)
		store := kvstore.New()
		d, err := New(loop, cfg, func(_ int, op []byte, done func([]byte)) string {
			loop.After(10*sim.Microsecond, func() {
				res := store.Execute(op)
				if bare && kvstore.OpCode(op[0]) == kvstore.OpGet {
					res = bytes.TrimRight(res, ".")
				}
				done(res)
			})
			return ""
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		err = d.History().CheckLinearizable()
		if bare && err == nil {
			t.Error("bare stems passed the oracle")
		}
		if !bare && err != nil {
			t.Errorf("full values failed the oracle: %v", err)
		}
	}
}

// TestDriverScanRepliesMatchPrefix: every prefix the driver scans matches
// more keys than scanLimit, so each scan returns exactly scanLimit pairs,
// all under its prefix.
func TestDriverScanRepliesMatchPrefix(t *testing.T) {
	cfg := testConfig(Closed(1, 0))
	cfg.Mix = Mix{WritePct: 50, ScanPct: 50}
	loop := sim.NewLoop(1)
	store := kvstore.New()
	for key := 0; key < cfg.Keys.Keys(); key += 10 { // one key per scanned prefix
		prefix := KeyName(key)[:len(KeyName(key))-1]
		for i := 0; i <= scanLimit; i++ {
			store.Execute(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("%s-%d", prefix, i), "v"))
		}
	}
	scans := 0
	d, err := New(loop, cfg, func(_ int, op []byte, done func([]byte)) string {
		loop.After(sim.Microsecond, func() {
			res := store.Execute(op)
			if code, prefix, _, _ := kvstore.DecodeOp(op); code == kvstore.OpScan {
				scans++
				lines := strings.Split(string(res), "\n")
				if len(lines) != scanLimit {
					t.Errorf("scan of %q returned %d pairs, want the limit %d", prefix, len(lines), scanLimit)
				}
				for _, l := range lines {
					if l != "" && !strings.HasPrefix(l, prefix) {
						t.Errorf("scan pair %q outside prefix %q", l, prefix)
					}
				}
			}
			done(res)
		})
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if scans == 0 {
		t.Fatal("mix produced no scans")
	}
}

func TestConfigValidateRejectsBadShapes(t *testing.T) {
	good := testConfig(Closed(1, 0))
	for name, mutate := range map[string]func(*Config){
		"no-users":  func(c *Config) { c.Users = 0 },
		"no-conns":  func(c *Config) { c.Conns = 0 },
		"no-ops":    func(c *Config) { c.Ops = 0 },
		"neg-warm":  func(c *Config) { c.Warmup = -1 },
		"no-keys":   func(c *Config) { c.Keys = nil },
		"bad-mix":   func(c *Config) { c.Mix = Mix{ReadPct: 10} },
		"bad-model": func(c *Config) { c.Arrival = Arrival{Model: "warp"} },
		"neg-value": func(c *Config) { c.ValueSize = -1 },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := New(sim.NewLoop(1), cfg, func(int, []byte, func([]byte)) string { return "" }); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := New(sim.NewLoop(1), good, nil); err == nil {
		t.Error("nil invoker accepted")
	}
}

func TestDriverReportsIncompleteRuns(t *testing.T) {
	cfg := testConfig(Closed(1, 0))
	cfg.Users, cfg.Ops, cfg.Warmup = 2, 4, 0
	loop := sim.NewLoop(1)
	d, err := New(loop, cfg, func(_ int, _ []byte, done func([]byte)) string {
		// Drop every request: done never fires.
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err == nil {
		t.Fatal("driver reported success with no completions")
	}
}
