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

// TestCompareAgainstMissingBaselineFails pins the exit status of
// -compare: a baseline directory holding no file for the experiment (a
// mistyped path in CI) must fail the command — after writing the fresh
// result — while a real baseline compares clean and exits zero.
func TestCompareAgainstMissingBaselineFails(t *testing.T) {
	baseline, empty := t.TempDir(), t.TempDir()
	if code := run(tinyE1(baseline), io.Discard, io.Discard); code != 0 {
		t.Fatalf("baseline run exited %d", code)
	}
	var stdout, stderr strings.Builder
	if code := run(tinyE1(t.TempDir(), "-compare", empty), &stdout, &stderr); code != 1 {
		t.Errorf("compare against an empty directory exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "1 comparison(s) could not be made") ||
		!strings.Contains(stdout.String(), "wrote ") {
		t.Errorf("stdout %q / stderr %q: want the result written and the failed compare reported", stdout.String(), stderr.String())
	}
	if code := run(tinyE1(t.TempDir(), "-compare", baseline), io.Discard, io.Discard); code != 0 {
		t.Errorf("compare against a real baseline exited %d, want 0", code)
	}
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
