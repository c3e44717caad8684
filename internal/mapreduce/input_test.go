package mapreduce_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// splitValues lists each split's record values, in order.
func splitValues(t *testing.T, in mapreduce.Input, hint int) [][][]byte {
	t.Helper()
	splits, err := in.Splits(hint)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]byte, len(splits))
	for i, s := range splits {
		if err := s.Each(func(rec mapreduce.Record) error {
			if rec.Key != nil {
				t.Errorf("record key %q, want nil", rec.Key)
			}
			out[i] = append(out[i], rec.Value)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTupleArenaSplits: an arena's splits are MemoryInput's over
// TupleInput's records — same boundaries, same values in the same order —
// and each value is a window that an append cannot grow into the next
// record. On the leased driver both inputs frame byte-identical splits.
func TestTupleArenaSplits(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		data := datagen.Generate(datagen.AntiCorrelated, n, 3, int64(n))
		arena, records := mapreduce.EncodeTuples(data), mapreduce.TupleInput(data)
		if arena.Len() != n {
			t.Errorf("n = %d: arena holds %d records", n, arena.Len())
		}
		for _, hint := range []int{0, 1, 16, n + 3} {
			got, want := splitValues(t, arena, hint), splitValues(t, records, hint)
			if len(got) != len(want) {
				t.Fatalf("n = %d, hint %d: %d splits, want %d", n, hint, len(got), len(want))
			}
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("n = %d, hint %d: split %d has %d records, want %d", n, hint, s, len(got[s]), len(want[s]))
				}
				for r := range want[s] {
					if !bytes.Equal(got[s][r], want[s][r]) {
						t.Fatalf("n = %d, hint %d: split %d record %d = %x, want %x", n, hint, s, r, got[s][r], want[s][r])
					}
				}
			}
		}
	}

	vals := splitValues(t, mapreduce.EncodeTuples(tuple.List{{1, 2}, {3, 4}}), 1)[0]
	next := bytes.Clone(vals[1])
	_ = append(vals[0], 0xff, 0xff, 0xff)
	if !bytes.Equal(vals[1], next) {
		t.Errorf("appending to a record changed the next one: %x, want %x", vals[1], next)
	}

	data := datagen.Generate(datagen.Independent, 17, 3, 1)
	want := leasedSplits(t, mapreduce.TupleInput(data), 4)
	if got := leasedSplits(t, mapreduce.EncodeTuples(data), 4); len(got) != len(want) {
		t.Fatalf("leased: %d splits, want %d", len(got), len(want))
	} else {
		for m := range want {
			if !bytes.Equal(got[m], want[m]) {
				t.Errorf("leased split %d = %x, want %x", m, got[m], want[m])
			}
		}
	}
}

// leasedSplits submits a job over in with the given map task count to a
// scripted fleet and returns the framed split each map lease carries.
func leasedSplits(t *testing.T, in mapreduce.Input, mappers int) [][]byte {
	t.Helper()
	s := newScript(t, mappers)
	job := ship(wordCountJob(nil, mappers, 1))
	job.Input = in
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan outcome, 1)
	go func() {
		res, err := s.e.RunContext(ctx, job)
		out <- outcome{res, err}
	}()
	splits := make([][]byte, mappers)
	for m := range splits {
		splits[m] = s.grant(m, mapPhase, m, 1).Split
	}
	cancel()
	if _, err := s.wait(out); !errors.Is(err, context.Canceled) {
		t.Fatalf("job ended with %v, want context.Canceled", err)
	}
	return splits
}
