package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTempCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(b)), "\n")
}

func TestRunEndToEnd(t *testing.T) {
	in := writeTempCSV(t, "0.5,0.5\n0.2,0.8\n0.8,0.2\n0.9,0.9\n")
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := run(in, out, "MR-GPSRS", 2, 1, 0, 0, 2, "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, out)
	if len(lines) != 3 {
		t.Fatalf("skyline lines = %v", lines)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "0.9") {
			t.Errorf("dominated tuple in output: %s", l)
		}
	}
}

func TestRunMaximize(t *testing.T) {
	// Maximizing the second column flips which tuples survive.
	in := writeTempCSV(t, "1,5\n1,9\n2,9\n")
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := run(in, out, "MR-GPMRS", 2, 1, 0, 0, 2, "1", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, out)
	if len(lines) != 1 || lines[0] != "1,9" {
		t.Fatalf("maximize output = %v", lines)
	}
}

func TestRunMaximizeValidation(t *testing.T) {
	in := writeTempCSV(t, "1,2\n")
	if err := run(in, "", "MR-GPSRS", 2, 1, 0, 0, 2, "7", false, 0, ""); err == nil {
		t.Error("out-of-range maximize column accepted")
	}
	if err := run(in, "", "MR-GPSRS", 2, 1, 0, 0, 2, "x", false, 0, ""); err == nil {
		t.Error("garbage maximize column accepted")
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.csv"), "", "MR-GPSRS", 2, 1, 0, 0, 2, "", false, 0, ""); err == nil {
		t.Error("missing input accepted")
	}
}

func TestRunSpilledIdentical(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rows, "0.%03d,0.%03d\n", (i*37)%1000, (i*61)%1000)
	}
	in := writeTempCSV(t, rows.String())
	mem := filepath.Join(t.TempDir(), "mem.csv")
	sp := filepath.Join(t.TempDir(), "spilled.csv")
	if err := run(in, mem, "MR-GPMRS", 2, 1, 0, 0, 2, "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(in, sp, "MR-GPMRS", 2, 1, 0, 0, 2, "", false, 256, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	bm, _ := os.ReadFile(mem)
	bs, _ := os.ReadFile(sp)
	if string(bm) != string(bs) {
		t.Error("-spillbudget output differs from in-memory output")
	}
}
