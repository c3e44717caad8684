package mapreduce

import (
	"bytes"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"mrskyline/internal/frame"
	"mrskyline/internal/spill"
)

// A reducer's input reaches it in one of three shapes — resident arenas
// absorbed mapper by mapper, wire segments decoded into an arena, spilled
// runs merged from disk — and must not be able to tell which: same keys in
// the same order, same values in the same order, and a zero-length key or
// value nil in all three.

type group struct {
	Key  []byte
	Vals [][]byte
}

// keep copies b, preserving nil-versus-empty.
func keep(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte{}, b...)
}

func collectGroups(t *testing.T, src groupSource) []group {
	t.Helper()
	var out []group
	for {
		key, vals, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		g := group{Key: keep(key)}
		for _, v := range vals {
			g.Vals = append(g.Vals, keep(v))
		}
		out = append(out, g)
	}
}

// wantGroups is the oracle: a stable sort by key over the mappers'
// records in mapper order, zero lengths as nil.
func wantGroups(mappers [][]Record) []group {
	var all []Record
	for _, m := range mappers {
		all = append(all, m...)
	}
	sort.SliceStable(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	nilIfEmpty := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	var out []group
	for _, r := range all {
		if n := len(out); n == 0 || !bytes.Equal(out[n-1].Key, r.Key) {
			out = append(out, group{Key: nilIfEmpty(r.Key)})
		}
		out[len(out)-1].Vals = append(out[len(out)-1].Vals, nilIfEmpty(r.Value))
	}
	return out
}

func TestGroupsAcrossSegmentShapes(t *testing.T) {
	rec := func(k, v string) Record { return Record{Key: []byte(k), Value: []byte(v)} }
	cases := []struct {
		name    string
		mappers [][]Record
	}{
		{"empty-key", [][]Record{{rec("b", "1"), rec("", "2"), rec("a", "3")}}},
		{"empty-value", [][]Record{{rec("b", ""), rec("a", "1"), rec("b", "2")}}},
		{"both-empty-first", [][]Record{{rec("", ""), rec("a", "1"), rec("b", "2")}}},
		{"both-empty-middle", [][]Record{{rec("a", "1"), rec("", ""), rec("b", "2")}}},
		{"both-empty-last", [][]Record{{rec("a", "1"), rec("b", "2"), rec("", "")}}},
		{"only-empty", [][]Record{{rec("", "")}, {rec("", ""), rec("", "x")}}},
		{"nil-and-empty-slices", [][]Record{{{Key: []byte{}, Value: nil}, {Key: nil, Value: []byte{}}, rec("k", "v")}}},
		{"shared-8-byte-prefix", [][]Record{{rec("prefix--b", "1"), rec("prefix--", "2"), rec("prefix--a", "3"), rec("prefix-", "4"), rec("prefix--ab", "5")}}},
		{"duplicates-across-mappers", [][]Record{
			{rec("k", "m0-0"), rec("j", "m0-1"), rec("k", "m0-2")},
			{},
			{rec("k", "m2-0"), rec("", "m2-1"), rec("j", "")},
			{rec("", ""), rec("k", "m3-1")},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := wantGroups(c.mappers)
			segs := make([]frame.Arena, len(c.mappers))
			for m, recs := range c.mappers {
				for _, r := range recs {
					segs[m].Add(r.Key, r.Value)
				}
			}

			var resident frame.Arena
			for m := range segs {
				resident.Absorb(&segs[m])
			}
			src := groupArena(&resident)
			if got := collectGroups(t, &src); !reflect.DeepEqual(got, want) {
				t.Errorf("resident:\n got %q\nwant %q", got, want)
			}

			var wire frame.Arena
			for m := range segs {
				err := frame.WalkRecords(segs[m].AppendRecords(nil), func(key, value []byte) error {
					wire.Add(key, value)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			src = groupArena(&wire)
			if got := collectGroups(t, &src); !reflect.DeepEqual(got, want) {
				t.Errorf("wire:\n got %q\nwant %q", got, want)
			}

			// A 48-byte budget cuts most segments into several runs, and
			// fan-in 2 sends them through a merge tree first.
			cfg := &spill.Config{Dir: t.TempDir(), Budget: 48, FanIn: 2}
			var runs []spill.RunFile
			for m := range segs {
				rs, err := spillArena(cfg, &segs[m], "m"+strconv.Itoa(m), m)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, rs...)
			}
			final, _, err := spill.MergeTree(cfg, cfg.Dir, "merge", runs)
			if err != nil {
				t.Fatal(err)
			}
			g, err := spill.NewGroups(cfg, final)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if got := collectGroups(t, g); !reflect.DeepEqual(got, want) {
				t.Errorf("spilled:\n got %q\nwant %q", got, want)
			}
		})
	}
}
