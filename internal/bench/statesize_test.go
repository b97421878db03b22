package bench

import (
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickStateSize shrinks the prefill so a single run is cheap while the
// crash/restart arc and both restart inputs stay exercised.
func quickStateSize(kind transport.Kind, emptyRestart bool) StateSizeConfig {
	return StateSizeConfig{Kind: kind, Prefill: 1000, Payload: 64, Window: 8, Seed: 1, EmptyRestart: emptyRestart}
}

type stateSizeRun struct {
	res StateSizeResult
	err error
}

// stateSizeRuns holds the quickStateSize run of each (transport, restart
// input), made once for the tests that read it.
var stateSizeRuns = map[StateSizeConfig]stateSizeRun{}

func runQuickStateSize(kind transport.Kind, emptyRestart bool) (StateSizeResult, error) {
	cfg := quickStateSize(kind, emptyRestart)
	run, ok := stateSizeRuns[cfg]
	if !ok {
		run.res, run.err = RunStateSize(cfg, model.Default())
		stateSizeRuns[cfg] = run
	}
	return run.res, run.err
}

// TestStateSizeRecoveryBothModes asserts the E12 arc completes for both
// restart inputs on both transports: the restarted replica adopts a
// checkpoint, catches up, and commits resume — with zero transfer
// rejections on a fault-free network.
func TestStateSizeRecoveryBothModes(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, empty := range []bool{false, true} {
			r, err := runQuickStateSize(kind, empty)
			if err != nil {
				t.Errorf("%s empty-restart=%v: %v", kind, empty, err)
				continue
			}
			if r.StateTransfers == 0 || r.Recovery <= 0 {
				t.Errorf("%s empty-restart=%v: no recovery (%+v)", kind, empty, r)
			}
			if r.StateRejects != 0 {
				t.Errorf("%s empty-restart=%v: %d transfer rejections on a clean network", kind, empty, r.StateRejects)
			}
			if r.SteadyCheckpoints == 0 || r.SteadyCheckpointBytes == 0 {
				t.Errorf("%s empty-restart=%v: no steady checkpoints measured", kind, empty)
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
	partial, err := runQuickStateSize(transport.KindTCP, false)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := runQuickStateSize(transport.KindTCP, true)
	if err != nil {
		t.Fatal(err)
	}
	if partial.TransferBytes >= empty.TransferBytes {
		t.Errorf("partial transfer served %d bytes, empty restart %d", partial.TransferBytes, empty.TransferBytes)
	}
	if empty.TransferBytes < uint64(empty.StateBytes) {
		t.Errorf("empty restart received %d bytes, below the %d-byte state", empty.TransferBytes, empty.StateBytes)
	}
	if partial.Recovery >= empty.Recovery {
		t.Errorf("partial recovery %v not faster than empty restart %v", partial.Recovery, empty.Recovery)
	}
	if partial.SteadyCheckpointBytes*4 >= uint64(partial.StateBytes) {
		t.Errorf("steady checkpoint %d bytes is not a fraction of the %d-byte state", partial.SteadyCheckpointBytes, partial.StateBytes)
	}
}
