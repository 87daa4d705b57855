package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain points the persistent result store at a throwaway directory:
// the rw subcommand opens it by default (-cache rw), and tests — and
// the interrupt test's subprocess, which inherits the environment —
// must never touch the real user cache dir.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gemcheck-test-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("GEM_CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestChecks(t *testing.T) {
	for _, sub := range []string{"access", "histories", "rw", "distributed"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			if err := run([]string{sub}); err != nil {
				t.Fatalf("gemcheck %s: %v", sub, err)
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile produce non-empty pprof
// files, and an unwritable profile path fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "access"}); err != nil {
		t.Fatalf("gemcheck with profiles: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	bad := filepath.Join(dir, "no-such-dir", "cpu.pprof")
	if err := run([]string{"-cpuprofile", bad, "access"}); err == nil {
		t.Error("unwritable cpu profile path must fail")
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments must fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown check must fail")
	}
}
