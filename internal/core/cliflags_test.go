package core

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles: -cpuprofile and -memprofile both land where they
// point, and a path that cannot be created, or a CPU profile that cannot
// start, is an error, not a silent skip.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "second.pprof"), ""); err == nil {
		t.Error("a second CPU profile started while one was running")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}

	missing := filepath.Join(dir, "no-such-dir", "p.pprof")
	if _, err := StartProfiles(missing, ""); err == nil {
		t.Error("StartProfiles accepted an uncreatable CPU profile path")
	}
	stop, err = StartProfiles("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop accepted an uncreatable heap profile path")
	}
}
