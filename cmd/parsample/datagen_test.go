package main

import (
	"os"
	"testing"

	"parsample/internal/graph"
)

// Writes to a full device must fail the command, not report success.
func TestWritersReportFullDevice(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s not available: %v", full, err)
	}
	if err := writeModules(full, [][]int32{{0, 1, 2}, {3, 4}}); err == nil {
		t.Error("writeModules to a full device returned nil")
	}
	if err := writeNetworkFile(full, graph.Cycle(5)); err == nil {
		t.Error("writeNetworkFile to a full device returned nil")
	}
}

func TestWriteModulesFormat(t *testing.T) {
	path := t.TempDir() + "/m.modules"
	if err := writeModules(path, [][]int32{{0, 1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "module 0: 0 1 2\nmodule 1: 3 4\n"; string(got) != want {
		t.Fatalf("modules file = %q, want %q", got, want)
	}
}
