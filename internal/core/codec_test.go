package core

import (
	"math/rand"
	"testing"

	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// windowMapOf columnarizes per-partition tuple lists into a window.Map for
// encoding tests.
func windowMapOf(dim int, lists map[int]tuple.List) window.Map {
	wm := make(window.Map, len(lists))
	for p, l := range lists {
		wm[p] = window.FromList(dim, l)
	}
	return wm
}

// decodePartMap reads an appendPartMap payload back into tuple lists.
func decodePartMap(b []byte) (map[int]tuple.List, error) {
	pm := make(map[int]tuple.List)
	err := eachPart(b, func(p int, list []byte) error {
		l, _, err := tuple.DecodeList(list)
		pm[p] = l
		return err
	})
	return pm, err
}

func TestPartMapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		pm := make(map[int]tuple.List)
		nParts := rng.Intn(10)
		for i := 0; i < nParts; i++ {
			p := rng.Intn(1000)
			l := make(tuple.List, 1+rng.Intn(5))
			for j := range l {
				l[j] = tuple.Tuple{rng.Float64(), rng.Float64()}
			}
			pm[p] = l
		}
		wm := windowMapOf(2, pm)
		parts := wm.Sorted()
		enc := appendPartMap(nil, wm, parts)
		dec, err := decodePartMap(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(pm) {
			t.Fatalf("decoded %d partitions, want %d", len(dec), len(pm))
		}
		for p, l := range pm {
			got := dec[p]
			if len(got) != len(l) {
				t.Fatalf("partition %d: %d tuples, want %d", p, len(got), len(l))
			}
			for i := range l {
				if !got[i].Equal(l[i]) {
					t.Fatalf("partition %d tuple %d mismatch", p, i)
				}
			}
		}
	}
}

func TestPartMapSubsetEncoding(t *testing.T) {
	wm := windowMapOf(1, map[int]tuple.List{1: {{0.1}}, 2: {{0.2}}, 3: {{0.3}}})
	enc := appendPartMap(nil, wm, []int{1, 3, 99}) // 99 absent: skipped
	dec, err := decodePartMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[1] == nil || dec[3] == nil {
		t.Errorf("subset decode = %v", dec)
	}
}

func TestPartMapEmptyListsSkipped(t *testing.T) {
	wm := window.Map{5: window.New(1)}
	enc := appendPartMap(nil, wm, []int{5})
	dec, err := decodePartMap(enc)
	if err != nil || len(dec) != 0 {
		t.Errorf("empty-list encoding: %v, %v", dec, err)
	}
}

func TestPartMapDecodeErrors(t *testing.T) {
	wm := windowMapOf(2, map[int]tuple.List{1: {{0.5, 0.5}}})
	enc := appendPartMap(nil, wm, []int{1})
	for i := 0; i < len(enc); i++ {
		if _, err := decodePartMap(enc[:i]); err == nil {
			t.Errorf("truncation to %d bytes accepted", i)
		}
	}
	if _, err := decodePartMap(append(enc, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := decodePartMap(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestPPDCandidates(t *testing.T) {
	// Full series for small cardinality.
	got := ppdCandidates(100, 2) // nm = 10
	if len(got) != 9 || got[0] != 2 || got[len(got)-1] != 10 {
		t.Errorf("full candidates = %v", got)
	}
	// Thinned series fills the bound, keeps endpoints and strictly ascends.
	got = ppdCandidates(1_000_000, 2) // nm = 1000
	if len(got) != DefaultMaxPPDCandidates || got[0] != 2 || got[len(got)-1] != 1000 {
		t.Errorf("thinned candidates = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("thinned candidates not strictly ascending: %v", got)
		}
	}
	// Tiny data: nm = 2, single candidate.
	got = ppdCandidates(5, 3)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("tiny candidates = %v", got)
	}
}
