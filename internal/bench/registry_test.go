package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"rubin/internal/metrics"
)

// TestRegistryComplete asserts the suite registers E1–E12 with full
// metadata, in numeric order.
func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("experiment %d is %s, want %s", i, e.Name, want[i])
		}
		if e.Title == "" || e.Figure == "" || len(e.knobs) == 0 || e.run == nil {
			t.Errorf("%s: incomplete metadata %+v", e.Name, e)
		}
		if _, ok := Lookup(e.Name); !ok {
			t.Errorf("Lookup(%s) failed", e.Name)
		}
	}
}

// aboveMaximum lists, per experiment, knob values above an upper bound its
// check states: a bound a run would otherwise only meet mid-sweep.
var aboveMaximum = map[string][][2]string{
	"E7":  {{"payload", "262145"}},
	"E12": {{"prefills", "500,1048577"}, {"payload", "4097"}},
}

// TestKnobTableRejections drives the rejections every experiment shares
// through its declared table: an unknown experiment, an unknown knob, and
// — for every knob of every experiment — a non-integer, a value below
// the knob's stated minimum, and a list where one integer is expected;
// then each value of aboveMaximum.
func TestKnobTableRejections(t *testing.T) {
	if _, err := Run("E99", DefaultRunContext()); err == nil {
		t.Error("Run accepted unknown experiment E99")
	}
	for _, e := range Experiments() {
		for _, quick := range []bool{false, true} {
			rc := DefaultRunContext()
			rc.Quick = quick
			defaults, err := e.Params(rc)
			if err != nil {
				t.Fatalf("%s quick=%v: defaults rejected: %v", e.Name, quick, err)
			}
			if len(defaults) != len(e.knobs) {
				t.Errorf("%s: Params echoes %d knobs, the table declares %d", e.Name, len(defaults), len(e.knobs))
			}
		}
		reject := func(why, knob, value string) {
			rc := DefaultRunContext()
			rc.Knobs = map[string]string{knob: value}
			if _, err := e.Params(rc); err == nil {
				t.Errorf("%s: accepted %s %s=%q", e.Name, why, knob, value)
			}
			if _, err := Run(e.Name, rc); err == nil {
				t.Errorf("%s: ran with %s %s=%q", e.Name, why, knob, value)
			}
		}
		reject("unknown knob", "no_such_knob", "1")
		for _, k := range e.knobs {
			reject("non-integer", k.name, "zero")
			reject("empty", k.name, "")
			reject("below-minimum", k.name, strconv.Itoa(k.min-1))
			if k.list {
				reject("below-minimum element", k.name, fmt.Sprintf("%d,%d", k.min+1, k.min-1))
			} else {
				reject("list for a scalar", k.name, fmt.Sprintf("%d,%d", k.min+1, k.min+1))
			}
		}
		for _, kv := range aboveMaximum[e.Name] {
			reject("above-maximum", kv[0], kv[1])
		}
	}
}

// tinyKnobs shrink each experiment below even quick mode so the
// round-trip test stays cheap while exercising every registered Run.
var tinyKnobs = map[string]map[string]string{
	"E1": {"payloads_kb": "1", "messages": "60", "warmup": "10"},
	"E2": {"payloads_kb": "1", "messages": "60", "warmup": "10"},
	"E3": {"payloads_kb": "1", "messages": "60", "warmup": "10"},
	"E4": {"payloads_kb": "1", "messages": "60", "warmup": "10"},
	"E5": {"payloads_kb": "1", "requests": "30", "warmup": "5"},
	"E6": {"payloads_kb": "2", "messages": "60", "warmup": "10"},
	"E7": {}, // the timeline is fixed; quick mode already shrinks the window
	"E8": {"ns": "4", "ks": "1,2", "payloads_kb": "1", "requests": "20", "warmup": "5"},
	"E9": {"rates": "900", "skews": "99", "read_pcts": "50", "ks": "1",
		"users": "8", "conns": "2", "keys": "16", "ops": "30", "warmup": "5"},
	"E11": {"read_pcts": "80", "batches": "4",
		"users": "8", "conns": "2", "keys": "16", "ops": "40", "warmup": "5"},
	"E12": {"prefills": "300"},
}

// TestExperimentJSONRoundTripAndDeterminism runs every registered
// experiment twice under the same seed and asserts (a) the two runs
// marshal to byte-identical JSON — the determinism contract BENCH_*.json
// relies on — and (b) the JSON unmarshals back to an equal Result.
func TestExperimentJSONRoundTripAndDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rc := DefaultRunContext()
			rc.Quick = true
			rc.Seed = 7
			rc.Knobs = tinyKnobs[e.Name]

			first, err := Run(e.Name, rc)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := first.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(e.Name, rc)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := second.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two seed-7 runs differ:\n%s\nvs\n%s", b1, b2)
			}

			decoded, err := metrics.ParseResult(b1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, decoded) {
				t.Fatalf("marshal→unmarshal changed the result:\nin:  %+v\nout: %+v", first, decoded)
			}
			if decoded.Seed != 7 || !decoded.Quick || decoded.Experiment != e.Name {
				t.Fatalf("identity fields wrong after round trip: %+v", decoded)
			}
			for knob := range tinyKnobs[e.Name] {
				if _, ok := decoded.Config[knob]; !ok {
					t.Errorf("config echo missing knob %q", knob)
				}
			}
		})
	}
}
