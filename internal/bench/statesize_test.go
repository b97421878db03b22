package bench

import (
	"bytes"
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickStateSize shrinks the prefill so a single run is cheap while the
// crash/restart arc and both restart inputs stay exercised.
func quickStateSize(kind transport.Kind, emptyRestart bool) StateSizeConfig {
	cfg := DefaultStateSizeConfig(kind)
	cfg.Prefill = 1000
	cfg.EmptyRestart = emptyRestart
	return cfg
}

// TestStateSizeRecoveryBothModes asserts the E12 arc completes for both
// restart inputs on both transports: the restarted replica adopts a
// checkpoint, catches up, and commits resume — with zero transfer
// rejections on a fault-free network.
func TestStateSizeRecoveryBothModes(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, empty := range []bool{false, true} {
			r, err := RunStateSize(quickStateSize(kind, empty), model.Default())
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
	partial, err := RunStateSize(quickStateSize(transport.KindTCP, false), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := RunStateSize(quickStateSize(transport.KindTCP, true), model.Default())
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

// TestStateSizeDeterministic asserts a full E12 registry run (quick
// caps) marshals byte-identically across repetitions — the property the
// checked-in BENCH_E12.json and its pin test rely on.
func TestStateSizeDeterministic(t *testing.T) {
	run := func() []byte {
		rc := DefaultRunContext()
		rc.Quick = true
		rc.Knobs = map[string]string{"prefills": "500"}
		res, err := Run("E12", rc)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("E12 not byte-deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
