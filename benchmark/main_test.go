package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rubin/internal/pbft"
	"rubin/internal/sim"
)

// testScale shrinks every workload but crash-rubin, which does not scale:
// its arrivals have to span its fault script.
const testScale = 0.02

// lastLine runs the command in-process and decodes the last line of its
// standard output, the way the driver reads it.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// sameNames checks that the result holds exactly the declared metrics,
// each with the declared unit.
func sameNames(t *testing.T, res result, decls []metricDecl) {
	t.Helper()
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		got, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not emitted", d.Name)
		} else if got.Unit != d.Unit {
			t.Errorf("%s: unit %q, declared %q", d.Name, got.Unit, d.Unit)
		}
	}
}

func TestManifest(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest says %q (%q), code says %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloads drives all eight workloads through both modes at a small
// scale: every oracle passes, the emitted names are exactly the
// manifest's, every workload replays an op stream and reproduces its
// virtual numbers (checked inside measure and traceRun, which fail
// otherwise) and another seed gives a different op stream under the same
// schema. With -short only seed 1 and the end-to-end mode run, and the
// crash workload is left out.
func TestWorkloads(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			if sp.crash && testing.Short() {
				t.Skip("runs at full length only: about 20 s")
			}
			traces := t.TempDir()
			small := sp
			args := []string{"--workload", sp.name, "--seconds", "0", "--trace-dir", traces}
			if !sp.crash {
				small = sp.scaled(testScale)
				args = append(args, "--scale", fmt.Sprint(testScale))
			}
			res := lastLine(t, append(args, "--seed", "1", "--trace", "0")...)
			sameNames(t, res, m.EndToEnd)
			if want := (variants + 1) * (small.ops + small.warm); res.Attempted != want {
				t.Errorf("attempted %d ops, want %d: %d op streams and one replay compared with its first run", res.Attempted, want, variants)
			}
			if testing.Short() {
				return
			}
			one, err := runRep(small, subSeed(1, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			two, err := runRep(small, subSeed(2, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			if one.virt == two.virt {
				t.Error("seeds 1 and 2 gave the same virtual numbers: the seed does not shape the op stream")
			}
			layers := lastLine(t, append(args, "--seed", "1", "--trace", "1")...)
			sameNames(t, layers, m.PerLayer)
			raw, err := os.ReadFile(filepath.Join(traces, sp.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace file does not parse as a Chrome trace: %v", err)
			}
		})
	}
}

// TestServiceGap pins max_service_gap_us: the longest interval between
// two consecutive completions, never an op's own latency.
func TestServiceGap(t *testing.T) {
	for _, c := range []struct {
		done []sim.Time
		want sim.Time
	}{
		{nil, 0},
		{[]sim.Time{700}, 0}, // one completion has no interval, however late it came
		{[]sim.Time{700, 720, 1020, 1030}, 300},
		{[]sim.Time{10, 900, 910}, 890}, // done[0] is the last warm-up completion: the stall after it counts
	} {
		if got := maxGap(c.done); got != c.want {
			t.Errorf("maxGap(%v) = %d, want %d", c.done, got, c.want)
		}
	}
	// With 30 echoes in flight completions follow each other far closer
	// than one round trip. Counting the first measured op from its arrival
	// made the gap equal the latency.
	sp, _ := findSpec("echo-nio")
	r, err := runRep(sp.scaled(0.02), subSeed(1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.virt.MaxGap <= 0 || r.virt.MaxGap >= r.virt.P50/2 {
		t.Errorf("echo-nio: longest service gap %v, median latency %v", r.virt.MaxGap, r.virt.P50)
	}
}

// TestTimedStoreKeepsOptionalInterfaces guards the wrapper handed to
// pbft.NewCluster: losing either interface makes the run silently fall
// back to full-state transfer or never serve a tentative read.
func TestTimedStoreKeepsOptionalInterfaces(t *testing.T) {
	app := newInstruments("test").appFactory()(0)
	if _, ok := app.(pbft.PartitionedState); !ok {
		t.Error("timed store is not a pbft.PartitionedState")
	}
	if _, ok := app.(pbft.TentativeReader); !ok {
		t.Error("timed store is not a pbft.TentativeReader")
	}
}

// TestCompare feeds --compare two synthetic -out files: the second is
// 30 % slower to set up on one workload and otherwise identical.
func TestCompare(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, setup float64) string {
		path := filepath.Join(t.TempDir(), name)
		for seed := int64(1); seed <= 10; seed++ {
			res := result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}
			for _, d := range m.withHostClock() {
				res.Metrics[d.Name] = metric{Value: 100 + float64(seed)/10, Unit: d.Unit}
			}
			res.Metrics["setup_s"] = metric{Value: setup + float64(seed)/1000, Unit: "s"}
			if err := appendRecord(path, record{Workload: specs[0].name, Seed: seed, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var table bytes.Buffer
	regressed, err := compareFiles(m, write("a.jsonl", 1.0), write("b.jsonl", 1.3), &table)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || strings.Count(table.String(), "regressed") != 1 ||
		strings.Count(table.String(), "unchanged") != len(m.withHostClock())-1 {
		t.Errorf("want setup_s alone regressed, got\n%s", table.String())
	}
	// A workload one side never reported is a regression, not a skip.
	lone := filepath.Join(t.TempDir(), "lone.jsonl")
	if err := appendRecord(lone, record{Workload: specs[1].name, Seed: 1, Result: result{Correct: true, Attempted: 1}}); err != nil {
		t.Fatal(err)
	}
	table.Reset()
	if regressed, err := compareFiles(m, lone, write("c.jsonl", 1.0), &table); err != nil || !regressed {
		t.Errorf("want a regression for workloads present on one side only, got %v, %v\n%s", regressed, err, table.String())
	}
	if quartileDistance([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}) != 156.5 {
		t.Error("quartile distance differs from statistics.quantiles(n=4)")
	}
}
