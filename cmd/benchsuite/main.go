// Command benchsuite runs any subset of the registered experiments
// (E1–E12) and writes one machine-readable BENCH_<name>.json per
// experiment, so the repository's benchmark trajectory can be recorded and
// diffed PR over PR.
//
// Usage:
//
//	go run ./cmd/benchsuite -list
//	go run ./cmd/benchsuite -experiments E5,E8 -out .
//	go run ./cmd/benchsuite -quick -out /tmp/bench          # CI smoke
//	go run ./cmd/benchsuite -quick -experiments E9 -trace out.json
//	go run ./cmd/benchsuite -quick -experiments E9 -cpuprofile cpu.pprof
//
// Every run is deterministic: the same -seed, knobs and code produce
// byte-identical JSON (including the -trace file), so a fresh result is
// held to a stored one with cmp, and a re-baseline's per-point moves are
// the file's git diff. -knob name=value overrides experiment parameters
// (repeatable); the accepted knobs of each experiment are listed in
// docs/EXPERIMENTS.md and echoed in each file's "config" object. -trace
// records per-request span trees and queue/CPU/backlog time series across
// every measurement run and writes one Chrome trace-event file (open in
// chrome://tracing or https://ui.perfetto.dev).
// -cpuprofile and -memprofile record where the simulator itself spends
// host CPU and allocates (read with go tool pprof -top <file>).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"rubin/internal/bench"
	"rubin/internal/obs"
)

// knobFlags collects repeated -knob name=value flags.
type knobFlags map[string]string

func (k knobFlags) String() string {
	var parts []string
	for name, v := range k {
		parts = append(parts, name+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (k knobFlags) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("knob %q: want name=value", s)
	}
	k[name] = value
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the process exit status — non-zero
// when a run fails.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiments := fs.String("experiments", "all", "comma-separated experiment names (E1..E12) or 'all'")
	out := fs.String("out", ".", "directory to write BENCH_<name>.json files into")
	quick := fs.Bool("quick", false, "shrink sweeps and message counts (CI smoke mode)")
	seed := fs.Int64("seed", 1, "simulation seed")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of every measurement run to this file")
	list := fs.Bool("list", false, "list registered experiments and exit")
	listKnobs := fs.Bool("knobs", false, "list each experiment's accepted knobs with effective defaults and exit")
	tables := fs.Bool("tables", true, "print human-readable tables alongside the JSON")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the experiment runs to this file")
	memprofile := fs.String("memprofile", "", "write a host allocation profile to this file after the runs")
	knobs := knobFlags{}
	fs.Var(knobs, "knob", "experiment knob override, name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-4s %-70s [%s]\n", e.Name, e.Title, e.Figure)
		}
		return 0
	}
	if *listKnobs {
		rc := bench.DefaultRunContext()
		rc.Quick = *quick
		for _, e := range bench.Experiments() {
			cfg, err := e.Params(rc)
			if err != nil {
				return fail(err)
			}
			names := make([]string, 0, len(cfg))
			for k := range cfg {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Fprintf(stdout, "%s:\n", e.Name)
			for _, k := range names {
				fmt.Fprintf(stdout, "  -knob %s=%s\n", k, cfg[k])
			}
		}
		return 0
	}
	names, err := selectExperiments(*experiments)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	rc := bench.DefaultRunContext()
	rc.Seed = *seed
	rc.Quick = *quick
	rc.Knobs = knobs
	if *trace != "" {
		rc.Trace = obs.New(obs.Options{Spans: true})
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	for _, name := range names {
		fmt.Fprintf(stdout, "== %s ==\n", name)
		res, err := bench.Run(name, rc)
		if err != nil {
			return fail(err)
		}
		path, err := res.WriteFile(*out)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d series)\n", path, len(res.Series))
		if *tables {
			for _, tab := range res.Tables() {
				fmt.Fprintln(stdout, tab.Render())
			}
		}
	}
	if *trace != "" {
		if err := writeTrace(*trace, rc.Trace); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d spans, %d samples, %d runs; %d spans dropped)\n",
			*trace, rc.Trace.SpanCount(), rc.Trace.SampleCount(), rc.Trace.RunCount(), rc.Trace.DroppedSpans())
	}
	return 0
}

// startProfiles starts the CPU profile (if cpu names a file) and returns
// the function that stops it and then writes the allocation profile (if
// mem names a file).
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // bring the profile's statistics up to date
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// writeTrace exports the collected span trees and time series as a Chrome
// trace-event file.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selectExperiments resolves the -experiments flag against the registry.
func selectExperiments(s string) ([]string, error) {
	if s == "all" {
		var names []string
		for _, e := range bench.Experiments() {
			names = append(names, e.Name)
		}
		return names, nil
	}
	var names []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if _, ok := bench.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", name)
		}
		names = append(names, name)
	}
	return names, nil
}
