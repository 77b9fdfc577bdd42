package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
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

// An unknown -only name fails, names the valid datasets and writes nothing.
func TestDatagenRejectsUnknownDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	err := runDatagen([]string{"-dir", dir, "-only", "XYZ"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "YNG|MID|UNT|CRE") {
		t.Fatalf("datagen -only XYZ: err = %v, want one naming YNG|MID|UNT|CRE", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("datagen -only XYZ touched %s (stat: %v)", dir, err)
	}
}

// -only writes exactly the named dataset.
func TestDatagenOnly(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := runDatagen([]string{"-dir", dir, "-only", "YNG"}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "YNG.edges YNG.modules" {
		t.Fatalf("datagen -only YNG wrote %q", got)
	}
	if !strings.HasPrefix(out.String(), "YNG: 5348 vertices") {
		t.Fatalf("datagen -only YNG printed %q", out.String())
	}
}
