package maintain

// Tests for the surface internal/wal builds on: arrival-order row
// export, explicit grid/generation reseeding, and standalone batch
// validation. The invariant under test is the one the durability layer's
// byte-identity claim rests on — reseeding New with ArrivalRows and the
// original grid reproduces the exact published state.

import (
	"math/rand"
	"reflect"
	"testing"

	"mrskyline/internal/tuple"
)

func randRows(rng *rand.Rand, n, dim int) tuple.List {
	rows := make(tuple.List, n)
	for i := range rows {
		rows[i] = make(tuple.Tuple, dim)
		for d := range rows[i] {
			rows[i][d] = rng.Float64()
		}
	}
	return rows
}

func TestArrivalRowsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seed := randRows(rng, 20, 3)
	m, err := New(seed.Clone(), Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Before churn, arrival order is exactly the seed order.
	if got := m.ArrivalRows(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("ArrivalRows after seeding differs from the seed order")
	}
	// Inserts extend the order; deletes remove without reordering.
	extra := randRows(rng, 5, 3)
	for _, r := range extra {
		if _, err := m.Apply([]Delta{{Op: OpInsert, Row: r.Clone()}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply([]Delta{{Op: OpDelete, Row: seed[7].Clone()}}); err != nil {
		t.Fatal(err)
	}
	want := append(append(tuple.List{}, seed[:7]...), seed[8:]...)
	want = append(want, extra...)
	if got := m.ArrivalRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ArrivalRows after churn is not arrival order minus deletions")
	}
}

// TestReseedReproducesState is the checkpoint/recovery contract:
// New(ArrivalRows, same grid, SeedGen=gen) must reproduce the published
// snapshot byte for byte and stay byte-identical under further batches.
func TestReseedReproducesState(t *testing.T) {
	// Run one history twice — original vs checkpoint-at-batch-14 + replay —
	// and compare final states.
	rng2 := rand.New(rand.NewSource(12))
	orig, err := New(randRows(rng2, 30, 3), Config{Dim: 3, PPD: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reseeded *Maintained
	for i := 0; i < 25; i++ {
		batch := []Delta{{Op: OpInsert, Row: randRows(rng2, 1, 3)[0]}}
		if i%4 == 3 {
			rows := orig.ArrivalRows()
			batch = append(batch, Delta{Op: OpDelete, Row: rows[rng2.Intn(len(rows))].Clone()})
		}
		if _, err := orig.Apply(cloneBatch(batch)); err != nil {
			t.Fatal(err)
		}
		if reseeded != nil {
			if _, err := reseeded.Apply(cloneBatch(batch)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 14 {
			// "Checkpoint": reseed from arrival rows with the explicit grid.
			glo, ghi := orig.Bounds()
			reseeded, err = New(orig.ArrivalRows(), Config{
				Dim: 3, PPD: orig.PPD(), Lo: glo, Hi: ghi, SeedGen: orig.Generation(),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	os, rs := orig.Snapshot(), reseeded.Snapshot()
	if os.Gen != rs.Gen {
		t.Fatalf("generation diverged: orig %d, reseeded %d", os.Gen, rs.Gen)
	}
	if !reflect.DeepEqual(os.Skyline, rs.Skyline) {
		t.Fatalf("skyline diverged after reseed+replay")
	}
	if !reflect.DeepEqual(orig.ArrivalRows(), reseeded.ArrivalRows()) {
		t.Fatalf("arrival order diverged after reseed+replay")
	}
}

func cloneBatch(b []Delta) []Delta {
	out := make([]Delta, len(b))
	for i, d := range b {
		out[i] = Delta{Op: d.Op, Row: d.Row.Clone()}
	}
	return out
}

func TestSeedGen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := New(randRows(rng, 5, 2), Config{Dim: 2, SeedGen: 41})
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(); g != 41 {
		t.Fatalf("seed generation = %d, want 41", g)
	}
	res, err := m.Apply([]Delta{{Op: OpInsert, Row: tuple.Tuple{0.5, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 42 {
		t.Fatalf("generation after one batch = %d, want 42", res.Gen)
	}
	// Zero keeps the default of 1.
	m0, err := New(randRows(rng, 5, 2), Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g := m0.Generation(); g != 1 {
		t.Fatalf("default seed generation = %d, want 1", g)
	}
}

func TestCheckBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, err := New(randRows(rng, 5, 3), Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	ok := []Delta{
		{Op: OpInsert, Row: tuple.Tuple{0.1, 0.2, 0.3}},
		{Op: OpDelete, Row: tuple.Tuple{0.4, 0.5, 0.6}},
	}
	if err := m.CheckBatch(ok); err != nil {
		t.Fatalf("CheckBatch rejected a valid batch: %v", err)
	}
	bad := [][]Delta{
		{{Op: OpInsert, Row: tuple.Tuple{0.1, 0.2}}},        // wrong dim
		{{Op: Op(9), Row: tuple.Tuple{0.1, 0.2, 0.3}}},      // unknown op
		{{Op: OpInsert, Row: tuple.Tuple{0.1, 0.2, nan()}}}, // NaN
	}
	gen := m.Generation()
	for i, b := range bad {
		if err := m.CheckBatch(b); err == nil {
			t.Fatalf("CheckBatch accepted invalid batch %d", i)
		}
		if _, err := m.Apply(b); err == nil {
			t.Fatalf("Apply accepted invalid batch %d", i)
		}
	}
	if m.Generation() != gen {
		t.Fatalf("rejected batches changed the generation")
	}
	// Sliding windows reject deletes at validation time too.
	w, err := New(randRows(rng, 3, 3), Config{Dim: 3, WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CheckBatch([]Delta{{Op: OpDelete, Row: tuple.Tuple{0.1, 0.2, 0.3}}}); err == nil {
		t.Fatal("CheckBatch accepted a delete on a sliding window")
	}
	if w.WindowCap() != 4 {
		t.Fatalf("WindowCap = %d, want 4", w.WindowCap())
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestBoundsReturnsGridDomain(t *testing.T) {
	m, err := New(tuple.List{{0.2, 0.8}, {0.4, 0.1}}, Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Bounds()
	if len(lo) != 2 || len(hi) != 2 {
		t.Fatalf("Bounds dimensionality: lo %d, hi %d", len(lo), len(hi))
	}
	for d := 0; d < 2; d++ {
		if lo[d] > hi[d] {
			t.Fatalf("lo[%d]=%v > hi[%d]=%v", d, lo[d], d, hi[d])
		}
	}
	// Reseeding with the explicit domain must accept rows on it.
	if _, err := New(tuple.List{{0.3, 0.3}}, Config{Dim: 2, PPD: m.PPD(), Lo: lo, Hi: hi}); err != nil {
		t.Fatalf("explicit-domain reseed rejected: %v", err)
	}
}
