package mrskyline

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func durableRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			rows[i][d] = rng.Float64()
		}
	}
	return rows
}

func TestDurableMaintainedRestartRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := filepath.Join(t.TempDir(), "ds")
	seed := durableRows(rng, 40, 3)

	h, err := mustService(t, ServiceConfig{}).OpenMaintained(seed, MaintainOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Durable() {
		t.Fatal("handle with DataDir is not durable")
	}
	var deltas []Delta
	for _, row := range durableRows(rng, 25, 3) {
		deltas = append(deltas, Delta{Op: DeltaInsert, Row: row})
	}
	deltas = append(deltas, Delta{Op: DeltaDelete, Row: seed[3]})
	for _, d := range deltas {
		if _, err := h.ApplyDeltas([]Delta{d}); err != nil {
			t.Fatal(err)
		}
	}
	wantSnap := h.Skyline()
	wantGen := h.Generation()
	wantSize := h.Size()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := mustService(t, ServiceConfig{}).RestoreMaintained(MaintainOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != wantGen || r.Size() != wantSize {
		t.Fatalf("restored gen/size = %d/%d, want %d/%d", r.Generation(), r.Size(), wantGen, wantSize)
	}
	gotSnap := r.Skyline()
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatalf("restored skyline differs from pre-shutdown skyline")
	}
	// The restored handle keeps working.
	res, err := r.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{0.01, 0.01, 0.01}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != wantGen+1 {
		t.Fatalf("post-restore generation = %d, want %d", res.Gen, wantGen+1)
	}
}

// TestDurableMaximizeSurvivesRestore: orientation is not derivable from
// the stored (oriented) tuples, so it rides in the snapshot meta blob.
func TestDurableMaximizeSurvivesRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	data := [][]float64{{1, 9}, {2, 8}, {9, 1}}
	maximize := []bool{false, true}

	h, err := mustService(t, ServiceConfig{}).OpenMaintained(data, MaintainOptions{DataDir: dir, Maximize: maximize})
	if err != nil {
		t.Fatal(err)
	}
	want := h.Skyline()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := mustService(t, ServiceConfig{}).RestoreMaintained(MaintainOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Skyline()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored skyline %v, want %v (orientation lost?)", got.Skyline, want.Skyline)
	}
	for _, row := range got.Skyline {
		if row[1] < 5 {
			t.Fatalf("skyline row %v not in caller orientation (maximize dim 1)", row)
		}
	}
}

func TestRestoreMaintainedErrors(t *testing.T) {
	if _, err := mustService(t, ServiceConfig{}).RestoreMaintained(MaintainOptions{}); err == nil {
		t.Fatal("RestoreMaintained without DataDir succeeded")
	}
	if _, err := mustService(t, ServiceConfig{}).RestoreMaintained(MaintainOptions{DataDir: t.TempDir()}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("restore of empty dir = %v, want ErrNoDurableState", err)
	}
}

func TestMemoryOnlyHandleCloseNoop(t *testing.T) {
	h, err := mustService(t, ServiceConfig{}).OpenMaintained([][]float64{{1, 2}, {2, 1}}, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Durable() {
		t.Fatal("memory-only handle claims to be durable")
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Memory-only handles stay usable semantics-wise: Close is a no-op.
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{0.5, 0.5}}}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceDurableMaintained(t *testing.T) {
	svc, err := NewService(ServiceConfig{WALSync: "batch", WALCheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dir := filepath.Join(t.TempDir(), "ds")
	h, err := svc.OpenMaintained(durableRows(rand.New(rand.NewSource(5)), 20, 3), MaintainOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{0.1 * float64(i), 0.5, 0.5}}}); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Skyline()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Durability metrics must land in the service registry.
	metrics, err := svc.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"wal.append.records", "wal.fsyncs"} {
		if !strings.Contains(string(metrics), series) {
			t.Fatalf("service metrics missing %q:\n%s", series, metrics)
		}
	}
	r, err := svc.RestoreMaintained(MaintainOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !reflect.DeepEqual(r.Skyline(), want) {
		t.Fatalf("service restore diverged from pre-close skyline")
	}
}

func TestServiceConfigWALValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{WALSync: "sometimes"}); err == nil || !strings.Contains(err.Error(), "sync mode") {
		t.Fatalf("NewService with an unknown WALSync: error = %v", err)
	}
	if _, err := NewService(ServiceConfig{WALSyncInterval: -1}); err == nil {
		t.Fatal("NewService accepted a negative WALSyncInterval")
	}
	if _, err := NewService(ServiceConfig{Nodes: -3}); err == nil {
		t.Fatal("NewService accepted a negative cluster shape")
	}
}
