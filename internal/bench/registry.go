package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
)

// RunContext carries everything an experiment run is parameterized by:
// the simulation seed, the calibrated cost model, a quick/full switch, and
// experiment-specific knob overrides. The zero Knobs map means "defaults";
// Quick shrinks sweeps and message counts for CI smoke runs while keeping
// every code path exercised.
type RunContext struct {
	Seed  int64
	Quick bool
	Model model.Params
	// Knobs overrides experiment-specific parameters by name (the knob
	// names of each experiment are listed in docs/EXPERIMENTS.md and
	// echoed into Result.Config). Unknown knobs are rejected by Run.
	Knobs map[string]string
	// Trace, when non-nil, is the shared span tracer of a -trace suite
	// run: every measurement run records its span tree and time-series
	// samples into it for Chrome-trace export. It is not a knob and is
	// not echoed into Result.Config — with Trace nil the experiments
	// still aggregate the breakdown_* series through run-local tracers.
	Trace *obs.Tracer
}

// DefaultRunContext returns the standard full-fidelity context: seed 1 and
// the calibrated default cost model.
func DefaultRunContext() RunContext {
	return RunContext{Seed: 1, Model: model.Default()}
}

// knob declares one experiment parameter. The table is the single
// statement of each knob's name, defaults and lower bound: parsing, the
// Params echo (and so `benchsuite -knobs` and Result.Config) and the
// unknown-knob rejection all derive from it.
type knob struct {
	name  string
	def   string // full-fidelity default, in -knob syntax
	quick string // quick-mode default; "" = same as def
	min   int    // lower bound of every element
	list  bool   // comma-separated list; otherwise exactly one integer
	// derive, when set, computes the default from the knobs declared
	// before this one (E5's f follows n).
	derive func(values) int
}

// values are the resolved knobs of one run, by name.
type values map[string][]int

func (v values) int(name string) int    { return v[name][0] }
func (v values) ints(name string) []int { return v[name] }

// max returns the largest element of a list knob.
func (v values) max(name string) int {
	m := v[name][0]
	for _, x := range v[name] {
		if x > m {
			m = x
		}
	}
	return m
}

// echo renders the values in -knob syntax.
func (v values) echo() map[string]string {
	cfg := make(map[string]string, len(v))
	for name, xs := range v {
		cfg[name] = formatInts(xs)
	}
	return cfg
}

// parseInts parses a comma-separated integer list with a lower bound.
func parseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad value %q (want an integer >= %d)", part, min)
		}
		out = append(out, n)
	}
	return out, nil
}

// formatInts renders an integer list the way knobs encode it.
func formatInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// Experiment is one registered entry of the benchmark suite. Every
// experiment (E1–E12) registers itself from its defining file's init, so
// any binary importing internal/bench sees the full suite.
type Experiment struct {
	// Name is the registry key: "E1".."E12".
	Name string
	// Title is the one-line human description.
	Title string
	// Figure maps the experiment to the paper figure/section (or the
	// follow-up work) it reproduces.
	Figure string

	// knobs is the declarative parameter table; check validates what a
	// per-knob bound cannot (relations between knobs) and may be nil.
	knobs []knob
	check func(values) error
	// run executes the experiment and fills res with series; the registry
	// has already populated identity, seed and the knob echo. run may add
	// derived config entries (e.g. E5's "cluster" label) on top.
	run func(rc RunContext, v values, res *metrics.Result) error
}

// resolve computes the effective knob values under rc: overrides where
// given, else the (quick) defaults. Unknown knobs are rejected.
func (e Experiment) resolve(rc RunContext) (values, error) {
	v := make(values, len(e.knobs))
	for _, k := range e.knobs {
		s, overridden := rc.Knobs[k.name]
		switch {
		case overridden:
		case k.derive != nil:
			s = strconv.Itoa(k.derive(v))
		case rc.Quick && k.quick != "":
			s = k.quick
		default:
			s = k.def
		}
		xs, err := parseInts(s, k.min)
		if err == nil && !k.list && len(xs) != 1 {
			err = fmt.Errorf("want one integer, got %q", s)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s: knob %s: %v", e.Name, k.name, err)
		}
		v[k.name] = xs
	}
	for name := range rc.Knobs {
		if _, known := v[name]; !known {
			return nil, fmt.Errorf("bench: %s: unknown knob %q (have %s)", e.Name, name, e.knobNames())
		}
	}
	if e.check != nil {
		if err := e.check(v); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return v, nil
}

// Params returns the effective knob values under rc in -knob syntax —
// exactly the set of accepted knob names, echoed into Result.Config so a
// stored file documents its own run.
func (e Experiment) Params(rc RunContext) (map[string]string, error) {
	v, err := e.resolve(rc)
	if err != nil {
		return nil, err
	}
	return v.echo(), nil
}

func (e Experiment) knobNames() string {
	names := make([]string, len(e.knobs))
	for i, k := range e.knobs {
		names[i] = k.name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

var registry = map[string]Experiment{}

// Register adds an experiment to the registry; it panics on duplicate or
// malformed registrations (these are programmer errors wired at init).
func Register(e Experiment) {
	if e.Name == "" || e.Title == "" || e.Figure == "" || e.run == nil {
		panic(fmt.Sprintf("bench: incomplete experiment registration %+v", e))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %s", e.Name))
	}
	registry[e.Name] = e
}

// Experiments returns all registered experiments in numeric order
// (E1..E12).
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(out[i].Name, "E"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(out[j].Name, "E"))
		return ni < nj
	})
	return out
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run executes one experiment under the given context and returns its
// validated machine-readable result.
func Run(name string, rc RunContext) (*metrics.Result, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, knownNames())
	}
	v, err := e.resolve(rc)
	if err != nil {
		return nil, err
	}
	res := metrics.NewResult(e.Name, e.Title, e.Figure, rc.Seed, rc.Quick)
	for k, val := range v.echo() {
		res.SetConfig(k, val)
	}
	if err := e.run(rc, v, res); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	if err := res.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s produced invalid result: %w", name, err)
	}
	return res, nil
}

func knownNames() string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}
