package frame

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Record is one key/value pair of a test workload.
type Record struct{ Key, Value []byte }

// referenceGrouping reimplements the grouping the arena shuffle replaced —
// a map[string][][]byte per reducer plus a sort.Strings pass — as the
// oracle the sort-based path is checked against.
func referenceGrouping(recs []Record) (keys []string, groups map[string][][]byte) {
	groups = make(map[string][][]byte)
	for _, r := range recs {
		groups[string(r.Key)] = append(groups[string(r.Key)], r.Value)
	}
	keys = make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

// randomRecords generates a record set exercising the shuffle's edge cases:
// duplicate keys, empty values, and nil keys.
func randomRecords(rng *rand.Rand, n, keyCard int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		var key []byte
		if rng.Intn(10) != 0 { // 1 in 10 records keeps a nil key
			key = []byte(fmt.Sprintf("key-%03d", rng.Intn(keyCard)))
		}
		var val []byte
		if vlen := rng.Intn(24); vlen > 0 { // zero-length values stay nil
			val = make([]byte, vlen)
			rng.Read(val)
		}
		recs[i] = Record{Key: key, Value: val}
	}
	return recs
}

// TestArenaGroupingMatchesReference is the shuffle property test: records
// absorbed mapper-by-mapper into one arena, then sort-grouped, must produce
// exactly the reference grouping's key order, per-key value order, and
// payload byte count.
func TestArenaGroupingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Several source arenas stand in for per-mapper buckets.
		numSources := 1 + rng.Intn(4)
		var all []Record
		var merged Arena
		var wantBytes int64
		for s := 0; s < numSources; s++ {
			var src Arena
			for _, r := range randomRecords(rng, rng.Intn(40), 1+rng.Intn(8)) {
				src.Add(r.Key, r.Value)
				all = append(all, r)
				wantBytes += int64(len(r.Key) + len(r.Value))
			}
			merged.Absorb(&src)
		}
		if got := int64(len(merged.Bytes())); got != wantBytes {
			t.Fatalf("trial %d: len(Bytes()) = %d, want %d", trial, got, wantBytes)
		}
		if merged.Len() != len(all) {
			t.Fatalf("trial %d: len = %d, want %d", trial, merged.Len(), len(all))
		}

		wantKeys, wantGroups := referenceGrouping(all)
		idx := merged.SortedIndex()
		runs := merged.GroupRuns(idx)
		if len(runs) != len(wantKeys) {
			t.Fatalf("trial %d: %d key runs, want %d", trial, len(runs), len(wantKeys))
		}
		for g, run := range runs {
			key := merged.Key(int(idx[run.Lo]))
			if string(key) != wantKeys[g] {
				t.Fatalf("trial %d: run %d key = %q, want %q", trial, g, key, wantKeys[g])
			}
			wantVals := wantGroups[wantKeys[g]]
			if int(run.Hi-run.Lo) != len(wantVals) {
				t.Fatalf("trial %d: key %q has %d values, want %d", trial, key, run.Hi-run.Lo, len(wantVals))
			}
			for i := run.Lo; i < run.Hi; i++ {
				r := int(idx[i])
				if !bytes.Equal(merged.Key(r), key) {
					t.Fatalf("trial %d: run %d holds key %q, want %q", trial, g, merged.Key(r), key)
				}
				if !bytes.Equal(merged.Value(r), wantVals[i-run.Lo]) {
					t.Fatalf("trial %d: key %q value %d = %q, want %q", trial, key, i-run.Lo, merged.Value(r), wantVals[i-run.Lo])
				}
			}
		}
	}
}

// TestArenaNilSemantics pins the nil/empty contract: zero-length keys and
// values come back nil, exactly as the []Record shuffle stored them.
func TestArenaNilSemantics(t *testing.T) {
	var a Arena
	a.Add(nil, []byte("v"))
	a.Add([]byte{}, nil)
	a.Add([]byte("k"), []byte{})
	if a.Key(0) != nil || a.Key(1) != nil {
		t.Errorf("empty keys = %v, %v, want nil", a.Key(0), a.Key(1))
	}
	if a.Value(1) != nil || a.Value(2) != nil {
		t.Errorf("empty values = %v, %v, want nil", a.Value(1), a.Value(2))
	}
	if string(a.Value(0)) != "v" || string(a.Key(2)) != "k" {
		t.Errorf("non-empty views corrupted: %q, %q", a.Value(0), a.Key(2))
	}
}

// TestArenaViewsCapacityClamped guards the aliasing hazard: appending to a
// returned view must reallocate, never clobber the neighbouring record.
func TestArenaViewsCapacityClamped(t *testing.T) {
	var a Arena
	a.Add([]byte("aa"), []byte("11"))
	a.Add([]byte("bb"), []byte("22"))
	v := a.Value(0)
	_ = append(v, []byte("XXXX")...)
	k := a.Key(0)
	_ = append(k, 'Y')
	if string(a.Key(1)) != "bb" || string(a.Value(1)) != "22" {
		t.Fatalf("append through a view corrupted record 1: key %q value %q", a.Key(1), a.Value(1))
	}
}

// TestArenaAddAllocations: a record into an empty arena grows the payload
// once and the locators once, whatever the key and value lengths; a record
// into an arena with room allocates nothing. The race detector's build
// allocates on its own, so -race skips it.
func TestArenaAddAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	key, value := []byte("bucket-7"), bytes.Repeat([]byte{0xAB}, 300)
	var a Arena
	if n := testing.AllocsPerRun(100, func() {
		a = Arena{}
		a.Add(key, value)
	}); n != 2 {
		t.Errorf("one record into an empty arena: %v allocations, want 2", n)
	}
	a.Grow(10*(len(key)+len(value)), 10)
	if n := testing.AllocsPerRun(5, func() { a.Add(key, value) }); n != 0 {
		t.Errorf("one record into an arena with room: %v allocations, want 0", n)
	}
}

// TestArenaStability checks the tie-break: equal keys keep arrival order,
// which is what gives reducers the (mapper index, emission order) value
// sequence.
func TestArenaStability(t *testing.T) {
	var a Arena
	for i := 0; i < 20; i++ {
		a.Add([]byte("k"), []byte{byte(i)})
	}
	idx := a.SortedIndex()
	for i, r := range idx {
		if int(r) != i {
			t.Fatalf("SortedIndex()[%d] = %d, want %d", i, r, i)
		}
	}
}

// TestArenaChecksumGolden pins the in-memory segment checksum (payload,
// then each record's two little-endian lengths) for the fixed record list
// the format goldens share.
func TestArenaChecksumGolden(t *testing.T) {
	var a Arena
	a.Add([]byte("key-long-0002"), []byte("yy"))
	a.Add([]byte("a"), nil)
	a.Add(nil, []byte("v0"))
	a.Add([]byte("key-long-0001"), []byte("x"))
	a.Add([]byte("b"), bytes.Repeat([]byte("z"), 130))
	a.Add([]byte("a"), []byte("dup"))
	if got, want := a.Checksum(), uint64(0xd81176fcb05b4ecc); got != want {
		t.Errorf("arena checksum = %#x, want %#x", got, want)
	}
}

// benchRecords builds a deterministic workload for the grouping benchmarks.
func benchRecords(n, keyCard int) []Record {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, n)
	for i := range recs {
		val := make([]byte, 16+rng.Intn(16))
		rng.Read(val)
		recs[i] = Record{
			Key:   []byte(fmt.Sprintf("key-%06d", rng.Intn(keyCard))),
			Value: val,
		}
	}
	return recs
}

// BenchmarkGrouping compares the sort-based arena grouping against the
// map[string][][]byte + sort.Strings grouping it replaced, on identical
// workloads. The arena path is the allocation-reduction claim of the shuffle
// rewrite; keep both sides so regressions show up as a ratio, not a guess.
func BenchmarkGrouping(b *testing.B) {
	for _, keyCard := range []int{16, 1024} {
		for _, n := range []int{1_000, 50_000} {
			recs := benchRecords(n, keyCard)
			b.Run(fmt.Sprintf("arena/keys=%d/recs=%d", keyCard, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var a Arena
					for _, r := range recs {
						a.Add(r.Key, r.Value)
					}
					idx := a.SortedIndex()
					runs := a.GroupRuns(idx)
					for _, run := range runs {
						vals := make([][]byte, 0, run.Hi-run.Lo)
						for j := run.Lo; j < run.Hi; j++ {
							vals = append(vals, a.Value(int(idx[j])))
						}
						_ = vals
					}
				}
			})
			b.Run(fmt.Sprintf("reference/keys=%d/recs=%d", keyCard, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var bucket []Record
					for _, r := range recs {
						key := append([]byte(nil), r.Key...)
						val := append([]byte(nil), r.Value...)
						bucket = append(bucket, Record{Key: key, Value: val})
					}
					keys, groups := referenceGrouping(bucket)
					for _, k := range keys {
						_ = groups[k]
					}
				}
			})
		}
	}
}
