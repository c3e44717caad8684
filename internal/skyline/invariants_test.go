package skyline_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// TestWindowDominanceFreeInvariant checks the invariant InsertTuple both
// requires and maintains: after any insertion sequence, no window element
// dominates another.
func TestWindowDominanceFreeInvariant(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		d := int(dRaw%4) + 1
		var w tuple.List
		for i := 0; i < n; i++ {
			tp := make(tuple.Tuple, d)
			for k := range tp {
				tp[k] = float64(rng.Intn(4))
			}
			w = skyline.InsertTuple(tp, w, nil)
		}
		for i := range w {
			for j := range w {
				if i != j && tuple.Dominates(w[i], w[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAllKernelsAgree checks that BNL and SFS compute identical skylines
// (as sets) on arbitrary inputs.
func TestAllKernelsAgree(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8, discrete bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 150
		d := int(dRaw%5) + 1
		data := randomList(rng, n, d, discrete)
		return tuple.EqualAsSet(skyline.SFS(data, nil), skyline.BNL(data, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSkylineIsIdempotent checks skyline(skyline(R)) = skyline(R).
func TestSkylineIsIdempotent(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int(dRaw%4) + 1
		data := randomList(rng, rng.Intn(200), d, false)
		once := skyline.BNL(data, nil)
		twice := skyline.BNL(once, nil)
		return tuple.EqualAsSet(once, twice) && len(once) == len(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSkylineSubsetOfInput checks every skyline tuple comes from the input.
func TestSkylineSubsetOfInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomList(rng, rng.Intn(150), 3, true)
		for _, s := range skyline.SFS(data, nil) {
			if !data.Contains(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
