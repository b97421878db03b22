package bench

import (
	"sync"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/transport"
)

// quickE12 is the E12 run the tests read — a 1000-key prefill of 64-byte
// values, window 8, seed 1, both transports and both restart inputs: the
// crash/restart arc stays exercised while a run stays cheap — made once.
// The run itself fails when the restarted replica never recovers, a phase
// commits nothing or a transfer is rejected on the fault-free network.
var quickE12 = sync.OnceValues(func() (*metrics.Result, error) {
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Knobs = map[string]string{"prefills": "1000", "payload": "64", "window": "8"}
	return Run("E12", rc)
})

// stateSizeValue reads the one point of series "<mode> <kind>" in metric.
func stateSizeValue(t *testing.T, mode string, kind transport.Kind, metric string) float64 {
	t.Helper()
	res, err := quickE12()
	if err != nil {
		t.Fatal(err)
	}
	s := res.GetSeries(mode+" "+string(kind), metric)
	if s == nil || len(s.Points) != 1 {
		t.Fatalf("%s %s: want one %s point, got %+v", mode, kind, metric, s)
	}
	return s.Points[0].Y
}

// TestStateSizeRecoveryBothModes asserts the E12 arc completes for both
// restart inputs on both transports: the restarted replica adopts a
// checkpoint and catches up (the run errs otherwise, and on any transfer
// rejection), and steady checkpoints are measured.
func TestStateSizeRecoveryBothModes(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, mode := range []string{"partial", "empty-restart"} {
			if r := stateSizeValue(t, mode, kind, metrics.MetricRecoveryTime); r <= 0 {
				t.Errorf("%s %s: recovery took %v us", mode, kind, r)
			}
			if cp := stateSizeValue(t, mode, kind, metrics.MetricCheckpointBytes); cp == 0 {
				t.Errorf("%s %s: no steady checkpoints measured", mode, kind)
			}
		}
	}
}

// TestStateSizePartialBeatsEmptyRestart asserts the headline comparison
// at one prefill size: a replica rebooting from its cold state recovers
// over fewer transfer bytes than one rebooting empty — which must receive
// at least the whole state — and steady checkpoints serialize a fraction
// of the state.
func TestStateSizePartialBeatsEmptyRestart(t *testing.T) {
	value := func(mode, metric string) float64 { return stateSizeValue(t, mode, transport.KindTCP, metric) }
	partialXfer, emptyXfer := value("partial", metrics.MetricTransferBytes), value("empty-restart", metrics.MetricTransferBytes)
	if partialXfer >= emptyXfer {
		t.Errorf("partial transfer served %v bytes, empty restart %v", partialXfer, emptyXfer)
	}
	if state := value("empty-restart", metrics.MetricStateBytes); emptyXfer < state {
		t.Errorf("empty restart received %v bytes, below the %v-byte state", emptyXfer, state)
	}
	if partial, empty := value("partial", metrics.MetricRecoveryTime), value("empty-restart", metrics.MetricRecoveryTime); partial >= empty {
		t.Errorf("partial recovery %v us not faster than empty restart %v us", partial, empty)
	}
	if cp, state := value("partial", metrics.MetricCheckpointBytes), value("partial", metrics.MetricStateBytes); cp*4 >= state {
		t.Errorf("steady checkpoint %v bytes is not a fraction of the %v-byte state", cp, state)
	}
}
