// Command benchmark is the repository's benchmark: eight named workloads,
// end-to-end metrics on both clocks (virtual: what the modeled cluster
// delivers; host: what the simulator costs), per-layer metrics read from
// outside the layers, and a traced run. README.md in this directory is
// the dictionary; ../BENCHMARK.json is the contract (names, units,
// directions, bounds) and the only place those are written down.
//
//	go run -C benchmark . --workload small-rubin --seed 1 --seconds 8 --trace 0
//
// prints a human table on stderr and, as the last line of stdout, one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// manifest is the part of ../BENCHMARK.json the program uses.
type manifest struct {
	Workloads []workloadDecl `json:"workloads"`
	EndToEnd  []metricDecl   `json:"end_to_end"`
	PerLayer  []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const manifestPath = "../BENCHMARK.json" // the command runs with -C benchmark

// hostOpsPerS is the one end-to-end metric the manifest cannot hold: ops
// per wall second inside Driver.Run (echo: the echo loop), oracle time
// excluded, median over the reps. On a shared two-thread box ten runs of
// it spread by 8 to 22 % (README.md, Steadiness), at or above any bound the
// driver accepts, so the driver never sees it. It goes to the table on
// stderr and to the --out file, and --compare judges it like the rest:
// regressed beyond the bound, unresolved when the spread exceeds it.
var hostOpsPerS = metricDecl{Name: "host_ops_per_s", Unit: "ops/s", Better: "higher", Bound: ptr(0.15)}

func ptr(f float64) *float64 { return &f }

// withHostClock is the end-to-end list --out and --compare work with.
func (m manifest) withHostClock() []metricDecl {
	return append(append([]metricDecl(nil), m.EndToEnd...), hostOpsPerS)
}

func readManifest() (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", manifestPath, err)
	}
	for _, d := range m.EndToEnd {
		if d.Bound == nil {
			return m, fmt.Errorf("%s: end-to-end metric %s has no bound", manifestPath, d.Name)
		}
	}
	return m, nil
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out file: a result plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Env      env    `json:"env"`
	Result   result `json:"result"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see ../BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "the only source of randomness: seeds the loop and the workload generator")
	seconds := fs.Float64("seconds", 8, "how long to measure; timed reps repeat until it is used up")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced rep, and a trace file")
	scale := fs.Float64("scale", 1, "multiplies op counts only; shapes stay fixed")
	traceDir := fs.String("trace-dir", "traces", "where --trace 1 writes <workload>.trace.json")
	out := fs.String("out", "", "append the result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: benchmark --compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	m, err := readManifest()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("--compare needs two -out files"))
		}
		regressed, err := compareFiles(m, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	sp, ok := findSpec(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *scale != 1 {
		if sp.crash {
			// Moved with the op counts, the script changes what it tests: at
			// a tenth of its times the restarted leader wedges the group
			// (230 of 1320 ops never complete), at a fifth a rep does not
			// end within ten minutes.
			return fail(fmt.Errorf("%s does not scale: its arrivals have to span the fault script", sp.name))
		}
		sp = sp.scaled(*scale)
	}

	floor := make([]byte, gcFloor)
	defer runtime.KeepAlive(floor)
	var values map[string]float64
	var decls []metricDecl
	var count tally
	if *trace == 0 {
		decls = m.withHostClock()
		values, count, err = measure(sp, *seed, time.Duration(*seconds*float64(time.Second)))
	} else {
		decls = m.PerLayer
		values, count, err = traceRun(sp, *seed, *traceDir)
	}
	res, emitErr := emit(decls, values, count, err == nil)
	err = errors.Join(err, emitErr)
	if err != nil {
		res.Correct, res.Failed = false, res.Attempted
		fmt.Fprintln(stderr, "benchmark:", sp.name, "FAILED:", err)
	}
	printTable(stderr, sp.name, *seed, decls, res)
	if *out != "" {
		rec := record{Workload: sp.name, Seed: *seed, Trace: *trace, Result: res,
			Env: env{runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0)}}
		if werr := appendRecord(*out, rec); werr != nil {
			return fail(werr)
		}
	}
	delete(res.Metrics, hostOpsPerS.Name) // the last line holds exactly the manifest's metrics
	line, _ := json.Marshal(res)          // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// tally counts operations over the timed reps.
type tally struct{ attempted, failed int }

func (t *tally) add(r rep) {
	t.attempted += r.virt.Issued
	t.failed += r.virt.Issued - r.virt.Completed
}

// emit turns measured values into the result object, by the manifest: a
// declared metric the run did not produce reads 0 (a layer the workload
// does not run reports its counters as 0, so the schema is the same for
// all workloads); a produced metric the manifest does not declare is an
// error, so a misspelt name cannot vanish.
func emit(decls []metricDecl, values map[string]float64, t tally, ok bool) (result, error) {
	res := result{Correct: ok, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: map[string]metric{}}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	var unknown []string
	for name := range values {
		if !declared[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return res, fmt.Errorf("metrics not declared in %s: %v", manifestPath, unknown)
	}
	return res, nil
}

func printTable(w io.Writer, workload string, seed int64, decls []metricDecl, res result) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n", workload, seed, res.Correct, res.Attempted, res.Failed)
	for _, d := range decls {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

// variants is how many distinct op streams one seed expands to. Every
// run drives each of them once and reports the mean over them, which
// steadies a metric across seeds (the mean, not the median: echo-nio
// settles into one of two periodic regimes depending on the stream, and
// a median of a two-valued quantity jumps between the values). Then the
// streams are replayed in turn, once at least and until the measuring
// time is used up: a replay must reproduce its stream bit for bit, and
// adds a sample to the host-clock medians.
const variants = 5

// subSeed derives the i-th op stream of a seed.
func subSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// gcFloor bytes are kept live while measuring so that the collector does
// not start a cycle below twice this much heap. Without it the resident
// set of the workloads with a small live heap (the tcp-nio ones) is set
// by GC pacing luck: echo-nio read 23 to 60 MiB over ten runs, 80 to 86
// with the floor. The pages are never touched, so they add nothing
// resident themselves.
const gcFloor = 64 << 20

// warmUp runs one discarded rep at a tenth of the ops: it fills the Go
// heap, so memory-region spans are reused and zeroed the way they are in
// a long sweep, not handed out fresh by the OS.
func warmUp(sp spec, seed int64) error {
	sp.crash = false // a tenth of the arrivals ends before the fault script would fire
	_, err := runRep(sp.scaled(0.1), subSeed(seed, 0), nil)
	runtime.GC()
	return err
}

func measure(sp spec, seed int64, budget time.Duration) (map[string]float64, tally, error) {
	var t tally
	if err := warmUp(sp, seed); err != nil {
		return nil, t, fmt.Errorf("warm-up: %w", err)
	}
	var reps []rep
	var rss []float64
	began := time.Now()
	for i := 0; ; i++ {
		// At least one replay whatever the budget: the determinism oracle
		// must run on every workload, the heaviest included.
		if i > variants && time.Since(began)+time.Since(began)/time.Duration(i) > budget {
			break
		}
		r, err := runRep(sp, subSeed(seed, i%variants), nil)
		t.add(r)
		if err != nil {
			return nil, t, fmt.Errorf("rep %d: %w", i, err)
		}
		if i >= variants && r.virt != reps[i%variants].virt {
			return nil, t, fmt.Errorf("rep %d is not deterministic: replaying op stream %d gave\n  %+v, first\n  %+v",
				i, i%variants, r.virt, reps[i%variants].virt)
		}
		reps = append(reps, r)
		if i < variants {
			mib, err := residentMiB()
			if err != nil {
				return nil, t, err
			}
			rss = append(rss, mib)
		}
		runtime.GC()
	}
	setups := make([]float64, len(reps))
	opsPerS := make([]float64, len(reps))
	for i, r := range reps {
		setups[i] = r.setupS
		opsPerS[i] = float64(r.ops()) / r.runS
	}
	mean := func(of func(rep) float64) float64 {
		var sum float64
		for _, r := range reps[:variants] {
			sum += of(r)
		}
		return sum / variants
	}
	return map[string]float64{
		"op_latency_p50_us":       mean(func(r rep) float64 { return r.virt.P50.Micros() }),
		"op_latency_p99_us":       mean(func(r rep) float64 { return r.virt.P99.Micros() }),
		"goodput_ops_s":           mean(func(r rep) float64 { return r.virt.goodput() }),
		"max_service_gap_us":      mean(func(r rep) float64 { return r.virt.MaxGap.Micros() }),
		"setup_s":                 median(setups),
		hostOpsPerS.Name:          median(opsPerS),
		"host_alloc_bytes_per_op": mean(func(r rep) float64 { return float64(r.runAlloc) / float64(r.ops()) }),
		"host_mallocs_per_op":     mean(func(r rep) float64 { return float64(r.runMallocs) / float64(r.ops()) }),
		"peak_rss_mb":             median(rss),
	}, t, nil
}

func median(vals []float64) float64 {
	vals = append([]float64(nil), vals...)
	sort.Float64s(vals)
	if n := len(vals); n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[len(vals)/2]
}

// residentMiB is the process's resident set right now. Read as a rep
// returns — its whole deployment still reachable garbage, nothing handed
// back to the OS during the rep — it is that rep's high-water mark.
// ru_maxrss cannot be reset between reps, and over five reps it picks up
// the one in which a GC cycle ran late (+250 to +800 MiB in 3 runs of 10
// on crash-rubin); the median over per-rep readings does not.
func residentMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(resident) * float64(os.Getpagesize()) / (1 << 20), nil
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics and the trace file
// ---------------------------------------------------------------------------

// traceRun runs two untraced reps of the seed's first op stream, then the
// same stream with obs spans on, the kvstore and invoker wrappers
// installed and the pbft hooks attached, then the micro-probes. The
// traced rep's virtual numbers must equal the untraced ones bit for bit
// (observation never perturbs); the wall difference is the tracing
// overhead. End-to-end metrics are never taken from here.
func traceRun(sp spec, seed int64, dir string) (map[string]float64, tally, error) {
	var t tally
	if err := warmUp(sp, seed); err != nil {
		return nil, t, fmt.Errorf("warm-up: %w", err)
	}
	stream := subSeed(seed, 0)
	var plain [2]rep
	for i := range plain {
		var err error
		plain[i], err = runRep(sp, stream, nil)
		t.add(plain[i])
		if err != nil {
			return nil, t, fmt.Errorf("untraced rep %d: %w", i, err)
		}
		runtime.GC()
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	ins := newInstruments(fmt.Sprintf("virtual clock: %s seed=%d", sp.name, seed))
	traced, err := runRep(sp, stream, ins)
	t.add(traced)
	if err != nil {
		return nil, t, fmt.Errorf("traced rep: %w", err)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	if plain[0].virt != plain[1].virt || traced.virt != plain[0].virt {
		return nil, t, fmt.Errorf("virtual numbers differ between reps of one op stream:\n  untraced %+v\n  untraced %+v\n  traced   %+v",
			plain[0].virt, plain[1].virt, traced.virt)
	}

	out := traced.layers
	ins.reportSelf(out, traced)
	v, ops := traced.virt, float64(traced.ops())
	untracedRunS := (plain[0].runS + plain[1].runS) / 2
	out["obs.trace_overhead_share"] = traced.runS/untracedRunS - 1
	out["host.ops_per_s"] = ops / untracedRunS
	out["host.rep_spread"] = max(plain[0].runS, plain[1].runS) / min(plain[0].runS, plain[1].runS)
	out["host.setup_alloc_mb"] = float64(plain[1].setupAlloc) / (1 << 20)
	out["host.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	out["host.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	out["sim.events_per_op"] = float64(traced.runEvents) / ops
	out["sim.events_per_host_s"] = float64(plain[1].runEvents) / plain[1].runS
	out["sim.virtual_span_ms"] = traced.runSpan.Micros() / 1e3
	out["sim.host_s_per_virtual_s"] = untracedRunS / traced.runSpan.Seconds()
	out["workload.measured_ops"] = float64(v.Measured)
	out["workload.latency_mean_us"] = v.Mean.Micros()
	out["workload.check_host_s"] = plain[1].checkS

	runtime.GC() // the probes are workload-independent: do not let them mark the run's garbage
	probes, err := runProbes()
	if err != nil {
		return nil, t, err
	}
	for k, val := range probes {
		out[k] = val
	}
	// Estimates, not measurements: a probe's unit cost times a count the
	// workload exposes, over the untraced run's wall time. They rank the
	// layers that cannot be timed from outside until tracing moves inside
	// the program.
	wallNS := untracedRunS * 1e9
	frames := out["fabric.frames_per_op"] * ops
	wireKB := out["fabric.wire_bytes_per_op"] * ops / 1024
	out["host.est_share.sim"] = float64(traced.runEvents) * out["sim.probe_ns_per_event"] / wallNS
	if !sp.echo {
		out["host.est_share.auth"] = (frames*out["auth.probe_mac_host_ns.256"] + wireKB*out["auth.probe_hash_host_ns_per_kb"]) / wallNS
		out["host.est_share.msgnet"] = (frames*out["msgnet.probe_send_host_ns.1k"] + wireKB*out["msgnet.probe_send_host_ns.1m"]/1024) / wallNS
		out["host.est_share.pbft-codec"] = wireKB * out["pbft.probe_codec_host_ns_per_kb"] / wallNS

		// The obs phases partition the measured latency; a gap means a
		// milestone went missing.
		sum := out["obs.queue_us"] + out["obs.order_us"] + out["obs.net_us"] + out["obs.exec_us"]
		if mean := out["workload.latency_mean_us"]; sum < 0.99*mean || sum > 1.01*mean {
			err = fmt.Errorf("obs phases sum to %.3f us, mean latency is %.3f us", sum, mean)
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	out["host.cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	path, werr := ins.writeTrace(dir, sp.name)
	if werr == nil {
		fmt.Fprintln(os.Stderr, "benchmark: trace written to", path)
	}
	return out, t, errors.Join(err, werr)
}
