package spill

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// testConfig returns a config spilling into a fresh temp dir.
func testConfig(t testing.TB, budget int64, fanIn int) *Config {
	t.Helper()
	return &Config{Dir: t.TempDir(), Budget: budget, FanIn: fanIn, Stats: &Stats{}}
}

type rec struct{ k, v []byte }

// randomRecs draws n records with small keys drawn from a limited alphabet
// so duplicates (and thus grouping and tie-breaks) actually occur.
func randomRecs(rng *rand.Rand, n int) []rec {
	recs := make([]rec, n)
	for i := range recs {
		k := make([]byte, 1+rng.Intn(12))
		for j := range k {
			k[j] = byte('a' + rng.Intn(4))
		}
		v := make([]byte, rng.Intn(20))
		rng.Read(v)
		// A sprinkle of empty values exercises the zero-length frame path.
		if rng.Intn(10) == 0 {
			v = nil
		}
		recs[i] = rec{k, v}
	}
	return recs
}

// stableByKey returns recs stably sorted by key bytes — the global
// (key, arrival) order every spilled pipeline must reproduce.
func stableByKey(recs []rec) []rec {
	out := make([]rec, len(recs))
	copy(out, recs)
	sort.SliceStable(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

func writeAll(t *testing.T, cfg *Config, prefix string, tag int, recs []rec) []RunFile {
	t.Helper()
	w := NewWriter(cfg, prefix, tag)
	for _, r := range recs {
		if err := w.Add(r.k, r.v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	runs, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return runs
}

// drain streams every record of runs through a Merger.
func drain(t *testing.T, cfg *Config, runs []RunFile) []rec {
	t.Helper()
	m, err := NewMerger(cfg, runs)
	if err != nil {
		t.Fatalf("NewMerger: %v", err)
	}
	defer m.Close()
	var out []rec
	for {
		k, v, err := m.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
	}
}

func TestRunCodecRoundtrip(t *testing.T) {
	cfg := testConfig(t, 1<<20, 0)
	rng := rand.New(rand.NewSource(1))
	recs := randomRecs(rng, 500)
	runs := writeAll(t, cfg, "codec", 7, recs)
	if len(runs) != 1 {
		t.Fatalf("got %d runs under a large budget, want 1", len(runs))
	}
	rf := runs[0]
	if rf.Tag != 7 {
		t.Errorf("Tag = %d, want 7", rf.Tag)
	}
	if rf.Records != 500 {
		t.Errorf("Records = %d, want 500", rf.Records)
	}
	var wantPayload int64
	for _, r := range recs {
		wantPayload += int64(len(r.k) + len(r.v))
	}
	if rf.PayloadBytes != wantPayload {
		t.Errorf("PayloadBytes = %d, want %d", rf.PayloadBytes, wantPayload)
	}
	got := drain(t, cfg, runs)
	want := stableByKey(recs)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
			t.Fatalf("record %d = (%q, %x), want (%q, %x)", i, got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
}

func TestWriterBudgetCutsRuns(t *testing.T) {
	cfg := testConfig(t, 512, 0)
	rng := rand.New(rand.NewSource(2))
	recs := randomRecs(rng, 400)
	runs := writeAll(t, cfg, "cut", 0, recs)
	if len(runs) < 2 {
		t.Fatalf("got %d runs under a 512-byte budget, want several", len(runs))
	}
	if got := cfg.Stats.RunsWritten.Load(); got != int64(len(runs)) {
		t.Errorf("Stats.RunsWritten = %d, want %d", got, len(runs))
	}
	if peak := cfg.Stats.PeakResident(); peak > 512+64 {
		t.Errorf("peak resident %d greatly exceeds the 512-byte budget", peak)
	}
	// Each run is internally sorted, and the runs partition the records in
	// arrival order: run i's records were all added before run i+1's.
	seen := 0
	for _, rf := range runs {
		r, err := OpenRun(rf, 0)
		if err != nil {
			t.Fatalf("OpenRun: %v", err)
		}
		var prev []byte
		chunk := map[string]int{}
		n := 0
		for {
			k, v, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if prev != nil && bytes.Compare(prev, k) > 0 {
				t.Fatalf("run %s not sorted: %q after %q", rf.Path, k, prev)
			}
			prev = append(prev[:0], k...)
			chunk[string(k)+"\x00"+string(v)]++
			n++
		}
		r.Close()
		// The run's multiset must equal the corresponding arrival chunk.
		for _, rc := range recs[seen : seen+n] {
			key := string(rc.k) + "\x00" + string(rc.v)
			if chunk[key] == 0 {
				t.Fatalf("run %s missing record %q from its arrival chunk", rf.Path, key)
			}
			chunk[key]--
		}
		seen += n
	}
	if seen != len(recs) {
		t.Fatalf("runs hold %d records, want %d", seen, len(recs))
	}
}

// TestMergePreservesGlobalOrder is the core ordering property: records
// pushed through budget-cut runs and a multi-round merge tree come out in
// exactly the stable (key, arrival) order of one in-memory sort — across
// multiple writers concatenated in writer order, as the engine lists a
// reducer's runs mapper by mapper.
func TestMergePreservesGlobalOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig(t, 256, 2)
		var all []rec
		var runs []RunFile
		for w := 0; w < 3; w++ {
			recs := randomRecs(rng, 100+rng.Intn(200))
			runs = append(runs, writeAll(t, cfg, fmt.Sprintf("w%d", w), w, recs)...)
			all = append(all, recs...)
		}
		final, temps, err := MergeTree(cfg, cfg.Dir, "mt", runs)
		if err != nil {
			t.Fatalf("seed %d: MergeTree: %v", seed, err)
		}
		if len(final) > 2 {
			t.Fatalf("seed %d: %d final runs exceed fan-in 2", seed, len(final))
		}
		got := drain(t, cfg, final)
		want := stableByKey(all)
		if len(got) != len(want) {
			t.Fatalf("seed %d: merged %d records, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
				t.Fatalf("seed %d: record %d = (%q, %x), want (%q, %x)",
					seed, i, got[i].k, got[i].v, want[i].k, want[i].v)
			}
		}
		removePaths(temps)
	}
}

func TestMergeTreeMultiRound(t *testing.T) {
	cfg := testConfig(t, 128, 2)
	rng := rand.New(rand.NewSource(3))
	runs := writeAll(t, cfg, "many", 0, randomRecs(rng, 600))
	if len(runs) < 8 {
		t.Fatalf("only %d runs; the budget should cut at least 8", len(runs))
	}
	final, temps, err := MergeTree(cfg, cfg.Dir, "mt", runs)
	if err != nil {
		t.Fatalf("MergeTree: %v", err)
	}
	defer removePaths(temps)
	if len(final) > 2 {
		t.Errorf("%d final runs exceed fan-in 2", len(final))
	}
	if rounds := cfg.Stats.MergeRounds.Load(); rounds < 2 {
		t.Errorf("MergeRounds = %d, want ≥ 2 for %d runs at fan-in 2", rounds, len(runs))
	}
	for _, rf := range final {
		if rf.Tag != -1 && len(runs) > 2 {
			t.Errorf("final merge output carries tag %d, want -1", rf.Tag)
		}
	}
	// Source runs must survive the tree (they are the repair input).
	for _, rf := range runs {
		if _, err := os.Stat(rf.Path); err != nil {
			t.Errorf("source run %s deleted by MergeTree: %v", rf.Path, err)
		}
	}
}

func TestMergerRejectsOverFanIn(t *testing.T) {
	cfg := testConfig(t, 64, 2)
	rng := rand.New(rand.NewSource(4))
	runs := writeAll(t, cfg, "over", 0, randomRecs(rng, 200))
	if len(runs) <= 2 {
		t.Skipf("budget produced only %d runs", len(runs))
	}
	if _, err := NewMerger(cfg, runs); err == nil {
		t.Fatal("NewMerger accepted more runs than the fan-in")
	}
}

func TestGroupsStreamsKeyGroups(t *testing.T) {
	cfg := testConfig(t, 200, 0)
	rng := rand.New(rand.NewSource(5))
	recs := randomRecs(rng, 300)
	runs := writeAll(t, cfg, "grp", 0, recs)
	final, temps, err := MergeTree(cfg, cfg.Dir, "mt", runs)
	if err != nil {
		t.Fatalf("MergeTree: %v", err)
	}
	defer removePaths(temps)
	g, err := NewGroups(cfg, final)
	if err != nil {
		t.Fatalf("NewGroups: %v", err)
	}
	defer g.Close()

	// Expected: group the stable-sorted records by key.
	want := stableByKey(recs)
	i := 0
	var prevKey []byte
	total := 0
	for {
		key, vals, ok, err := g.Next()
		if err != nil {
			t.Fatalf("Groups.Next: %v", err)
		}
		if !ok {
			break
		}
		if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
			t.Fatalf("group keys not strictly increasing: %q then %q", prevKey, key)
		}
		prevKey = append(prevKey[:0], key...)
		for _, v := range vals {
			if i >= len(want) {
				t.Fatal("more grouped values than records")
			}
			if !bytes.Equal(key, want[i].k) || !bytes.Equal(v, want[i].v) {
				t.Fatalf("group record %d = (%q, %x), want (%q, %x)", i, key, v, want[i].k, want[i].v)
			}
			i++
		}
		total += len(vals)
	}
	if total != len(recs) {
		t.Fatalf("groups delivered %d values, want %d", total, len(recs))
	}
}

func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := randomRecs(rng, 200)

	// Flip single bytes at several offsets: inside the magic, the payload
	// and the trailer. Every flip must surface as *CorruptError carrying
	// the producer tag by the time the run is drained.
	cfg := testConfig(t, 1<<20, 0)
	pristine := writeAll(t, cfg, "corrupt", 42, recs)[0]
	raw, err := os.ReadFile(pristine.Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(runMagic) + 1, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xFF
		if err := os.WriteFile(pristine.Path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		err := drainErr(cfg, pristine)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: got %v, want *CorruptError", off, err)
		}
		if ce.Tag != 42 {
			t.Errorf("flip at %d: Tag = %d, want 42", off, ce.Tag)
		}
	}
	// Restored, the run reads cleanly again.
	if err := os.WriteFile(pristine.Path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := drainErr(cfg, pristine); err != io.EOF {
		t.Fatalf("pristine run: got %v, want io.EOF", err)
	}
	// Truncation is also corruption.
	if err := os.WriteFile(pristine.Path, raw[:len(raw)-9], 0o600); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if err := drainErr(cfg, pristine); !errors.As(err, &ce) {
		t.Fatalf("truncated run: got %v, want *CorruptError", err)
	}
}

// drainErr reads the run to completion and returns the terminal error
// (io.EOF on a clean drain).
func drainErr(cfg *Config, rf RunFile) error {
	r, err := OpenRun(rf, 0)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		if _, _, err := r.Next(); err != nil {
			return err
		}
	}
}

func TestConfigValidate(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		cfg *Config
		ok  bool
	}{
		{nil, true},
		{&Config{}, true},
		{&Config{Dir: dir, Budget: 1 << 20}, true},
		{&Config{Dir: dir, Budget: 1 << 20, FanIn: 2}, true},
		{&Config{Dir: dir, Budget: -1}, false},
		{&Config{Budget: 1 << 20}, false},
		{&Config{Dir: dir, Budget: 1 << 20, FanIn: 1}, false},
		{&Config{Dir: dir, Budget: 1 << 20, FanIn: -3}, false},
		{&Config{Dir: dir + "/nope", Budget: 1 << 20}, false},
	}
	for i, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%+v): Validate() = %v, want ok=%v", i, c.cfg, err, c.ok)
		}
	}
}

func TestStatsPeakResident(t *testing.T) {
	s := &Stats{}
	s.addResident(100)
	s.addResident(200)
	s.addResident(-150)
	s.addResident(50)
	if got := s.PeakResident(); got != 300 {
		t.Errorf("PeakResident = %d, want 300", got)
	}
	var nilStats *Stats
	nilStats.addResident(5) // must not panic
	if nilStats.PeakResident() != 0 {
		t.Error("nil Stats PeakResident != 0")
	}
}

func BenchmarkRunCodec(b *testing.B) {
	cfg := &Config{Dir: b.TempDir(), Budget: 1 << 30, Stats: &Stats{}}
	rng := rand.New(rand.NewSource(1))
	recs := randomRecs(rng, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(cfg, fmt.Sprintf("b%d", i), 0)
		for _, r := range recs {
			if err := w.Add(r.k, r.v); err != nil {
				b.Fatal(err)
			}
		}
		runs, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		r, err := OpenRun(runs[0], 0)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
		removeRuns(runs)
	}
}

func BenchmarkSpillMerge(b *testing.B) {
	dir := b.TempDir()
	cfg := &Config{Dir: dir, Budget: 64 << 10, FanIn: 4, Stats: &Stats{}}
	rng := rand.New(rand.NewSource(1))
	recs := randomRecs(rng, 50_000)
	runs, err := func() ([]RunFile, error) {
		w := NewWriter(cfg, "bench", 0)
		for _, r := range recs {
			if err := w.Add(r.k, r.v); err != nil {
				return nil, err
			}
		}
		return w.Finish()
	}()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		final, temps, err := MergeTree(cfg, dir, fmt.Sprintf("mt%d", i), runs)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMerger(cfg, final)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, _, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		m.Close()
		removePaths(temps)
		if n != len(recs) {
			b.Fatalf("merged %d records, want %d", n, len(recs))
		}
	}
}

// TestEmptyRecordIsARecord: a run whose first record has an empty key and
// an empty value is not a drained run. The merger used a nil head key as
// its "drained" sentinel, so this stream came back as zero records and a
// clean EOF.
func TestEmptyRecordIsARecord(t *testing.T) {
	cfg := testConfig(t, 1<<20, 0)
	recs := []rec{{nil, nil}, {[]byte("a"), []byte("1")}, {[]byte("b"), []byte("2")}}
	runs := writeAll(t, cfg, "empty", 0, recs)
	got := drain(t, cfg, runs)
	if len(got) != len(recs) {
		t.Fatalf("merged %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if !bytes.Equal(got[i].k, recs[i].k) || !bytes.Equal(got[i].v, recs[i].v) {
			t.Errorf("record %d = (%q, %q), want (%q, %q)", i, got[i].k, got[i].v, recs[i].k, recs[i].v)
		}
	}
}
