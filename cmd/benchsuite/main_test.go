package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyE1 runs the cheapest registered experiment into out.
func tinyE1(out string, extra ...string) []string {
	return append([]string{
		"-quick", "-tables=false", "-experiments", "E1", "-out", out,
		"-knob", "payloads_kb=1", "-knob", "messages=20", "-knob", "warmup=5",
	}, extra...)
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a non-empty
// profile behind, and a second run in the same process can profile again
// (the first one stopped its CPU profile).
func TestProfilesWritten(t *testing.T) {
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
		var stderr strings.Builder
		if code := run(tinyE1(dir, "-cpuprofile", cpu, "-memprofile", mem), io.Discard, &stderr); code != 0 {
			t.Fatalf("run %d exited %d: %s", i, code, stderr.String())
		}
		for _, path := range []string{cpu, mem} {
			if info, err := os.Stat(path); err != nil || info.Size() == 0 {
				t.Errorf("run %d: %s missing or empty (%v)", i, path, err)
			}
		}
	}
}
