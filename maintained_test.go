package mrskyline

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
)

func sortRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// TestMaintainedMatchesCompute is the serving-layer differential: after
// every delta batch, the maintained skyline must equal what the batch
// pipeline computes from scratch over the same residents.
func TestMaintainedMatchesCompute(t *testing.T) {
	data, err := Generate("independent", 400, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h, err := svc.OpenMaintained(data, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate("independent", 100, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 5; b++ {
		rows := h.Rows()
		deltas := []Delta{
			{Op: DeltaInsert, Row: fresh[b*2]},
			{Op: DeltaInsert, Row: fresh[b*2+1]},
			{Op: DeltaDelete, Row: rows[b*7%len(rows)]},
		}
		res, err := h.ApplyDeltas(deltas)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inserted != 2 || res.Deleted != 1 {
			t.Fatalf("batch %d: DeltaResult = %+v", b, res)
		}
		want, err := svc.Compute(context.Background(), h.Rows(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := h.Skyline()
		if got.Gen != res.Gen {
			t.Fatalf("snapshot gen %d, apply gen %d", got.Gen, res.Gen)
		}
		if !reflect.DeepEqual(sortRows(got.Skyline), sortRows(want.Skyline)) {
			t.Fatalf("batch %d: maintained %d rows, recompute %d rows", b, len(got.Skyline), len(want.Skyline))
		}
	}
	// Maintenance counters landed in the service registry.
	if n := svc.trace.Metrics().Counter("maintain.publishes"); n != 5 {
		t.Fatalf("maintain.publishes = %d, want 5", n)
	}
	if n := svc.trace.Metrics().Counter("maintain.deltas.inserted"); n != 10 {
		t.Fatalf("maintain.deltas.inserted = %d, want 10", n)
	}
}

func TestMaintainedMaximizeOrientation(t *testing.T) {
	// Under Maximize both dimensions, the skyline keeps the HIGHEST values.
	data := [][]float64{{1, 1}, {9, 9}, {2, 8}}
	h, err := mustService(t, ServiceConfig{}).OpenMaintained(data, MaintainOptions{Maximize: []bool{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Skyline()
	if len(snap.Skyline) != 1 || snap.Skyline[0][0] != 9 || snap.Skyline[0][1] != 9 {
		t.Fatalf("maximize skyline = %v, want [[9 9]]", snap.Skyline)
	}
	// An even better point replaces it; rows come back in user orientation.
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{10, 10}}}); err != nil {
		t.Fatal(err)
	}
	snap = h.Skyline()
	if len(snap.Skyline) != 1 || snap.Skyline[0][0] != 10 {
		t.Fatalf("maximize skyline after insert = %v, want [[10 10]]", snap.Skyline)
	}
	// Deleting it (specified in user orientation) restores {9, 9}.
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaDelete, Row: []float64{10, 10}}}); err != nil {
		t.Fatal(err)
	}
	if snap = h.Skyline(); len(snap.Skyline) != 1 || snap.Skyline[0][0] != 9 {
		t.Fatalf("maximize skyline after delete = %v, want [[9 9]]", snap.Skyline)
	}
}

func TestContinuousQuery(t *testing.T) {
	h, err := mustService(t, ServiceConfig{}).OpenMaintained([][]float64{{0.5, 0.5}}, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := h.Continuous()
	snap, changed := q.Poll()
	if !changed || snap == nil || snap.Gen != 1 {
		t.Fatalf("first Poll = (%v, %v), want seed snapshot", snap, changed)
	}
	// Nothing changed: the cheap path returns no rows.
	if snap, changed := q.Poll(); changed || snap != nil {
		t.Fatalf("idle Poll = (%v, %v), want (nil, false)", snap, changed)
	}
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{0.1, 0.1}}}); err != nil {
		t.Fatal(err)
	}
	snap, changed = q.Poll()
	if !changed || snap == nil || snap.Gen != 2 || len(snap.Skyline) != 1 {
		t.Fatalf("post-delta Poll = (%+v, %v)", snap, changed)
	}
	// A delta that cannot change the skyline still advances the
	// generation: Poll reports it (result-set diffing is the caller's
	// concern, generation change is ours).
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{0.9, 0.9}}}); err != nil {
		t.Fatal(err)
	}
	if _, changed := q.Poll(); !changed {
		t.Fatal("Poll missed a generation advance")
	}
	// Two independent cursors do not disturb each other.
	q2 := h.Continuous()
	if _, changed := q2.Poll(); !changed {
		t.Fatal("fresh cursor saw no state")
	}
	if _, changed := q.Poll(); changed {
		t.Fatal("cursor advanced by another cursor's poll")
	}
}

func TestMaintainedErrors(t *testing.T) {
	if _, err := mustService(t, ServiceConfig{}).OpenMaintained(nil, MaintainOptions{}); err == nil {
		t.Fatal("empty seed without Dim accepted")
	}
	if _, err := mustService(t, ServiceConfig{}).OpenMaintained([][]float64{{1, 2}}, MaintainOptions{Maximize: []bool{true}}); err == nil {
		t.Fatal("Maximize dimensionality mismatch accepted")
	}
	if _, err := mustService(t, ServiceConfig{}).OpenMaintained(nil, MaintainOptions{Dim: 3, Maximize: []bool{true}}); err == nil {
		t.Fatal("Maximize mismatching Dim accepted on an empty seed")
	}
	h, err := mustService(t, ServiceConfig{}).OpenMaintained([][]float64{{1, 2}}, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ApplyDeltas([]Delta{{Op: "upsert", Row: []float64{1, 2}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{math.Inf(1), 2}}}); err == nil {
		t.Fatal("non-finite row accepted")
	}
	// Stats reflects the seed state.
	st := h.Stats()
	if st.Size != 1 || st.Gen != 1 || st.SkylineSize != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestMaintainedSlidingWindow(t *testing.T) {
	h, err := mustService(t, ServiceConfig{}).OpenMaintained(nil, MaintainOptions{Dim: 2, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v := 1.0 - float64(i)*0.05
		if _, err := h.ApplyDeltas([]Delta{{Op: DeltaInsert, Row: []float64{v, v}}}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Size() != 4 {
		t.Fatalf("Size = %d, want 4", h.Size())
	}
	// Monotone decreasing stream: the newest resident dominates the rest.
	snap := h.Skyline()
	if len(snap.Skyline) != 1 || snap.Skyline[0][0] != 1.0-9*0.05 {
		t.Fatalf("sliding skyline = %v", snap.Skyline)
	}
	if _, err := h.ApplyDeltas([]Delta{{Op: DeltaDelete, Row: []float64{0.6, 0.6}}}); err == nil {
		t.Fatal("delete accepted on sliding window")
	}
}
