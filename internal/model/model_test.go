package model

import (
	"testing"
	"testing/quick"

	"rubin/internal/sim"
)

func TestSerializeTimeScalesWithSize(t *testing.T) {
	lp := Default().Link
	small := lp.SerializeTime(1 << 10)
	big := lp.SerializeTime(100 << 10)
	if big <= small {
		t.Fatalf("serialize(100KB)=%v not greater than serialize(1KB)=%v", big, small)
	}
	// 10 Gbps moves 1 KB of payload in ~0.82 µs plus header overhead.
	if small < 700*sim.Nanosecond || small > 2*sim.Microsecond {
		t.Fatalf("serialize(1KB)=%v outside plausible band", small)
	}
}

func TestSerializeTimeZeroPayloadStillOneFrame(t *testing.T) {
	lp := Default().Link
	if got := lp.SerializeTime(0); got <= 0 {
		t.Fatalf("zero payload should still cost one frame header, got %v", got)
	}
	if Default().Link.Frames(0) != 1 {
		t.Fatal("zero payload should occupy one frame")
	}
}

func TestFrames(t *testing.T) {
	lp := LinkParams{BandwidthBytesPerSec: 1e9, MTU: 1500}
	cases := []struct{ size, want int }{
		{1, 1}, {1500, 1}, {1501, 2}, {3000, 2}, {3001, 3},
	}
	for _, c := range cases {
		if got := lp.Frames(c.size); got != c.want {
			t.Errorf("Frames(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestKBScaling(t *testing.T) {
	if got := KB(1000, 2048); got != 2000 {
		t.Fatalf("KB(1000ns, 2KB) = %v, want 2000", got)
	}
	if got := KB(1000, 512); got != 500 {
		t.Fatalf("KB(1000ns, 512B) = %v, want 500", got)
	}
	if got := KB(1000, 0); got != 0 {
		t.Fatalf("KB(_, 0) = %v, want 0", got)
	}
}

func TestPropertySerializeMonotonic(t *testing.T) {
	lp := Default().Link
	prop := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return lp.SerializeTime(x) <= lp.SerializeTime(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultIsSane(t *testing.T) {
	p := Default()
	if p.Host.Cores < 1 || p.Host.NICEngines < 1 {
		t.Fatal("host must have cores and NIC engines")
	}
}
