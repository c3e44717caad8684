package window

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mrskyline/internal/tuple"
)

// TestPoolHandsOutEmptyWindows: a window back from a Pool is empty, of the
// dimensionality asked for, padded and pinning no tuple, with the capacity
// it had grown; the same inserts then build in it the window, and the
// count, they build in a fresh one. A window of another dimensionality is
// never handed out, and a nil Pool allocates and keeps nothing.
func TestPoolHandsOutEmptyWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	rows := func(n, d int) tuple.List {
		l := make(tuple.List, n)
		for i := range l {
			l[i] = make(tuple.Tuple, d)
			for k := range l[i] {
				l[i][k] = rng.Float64()
			}
		}
		return l
	}
	var pl Pool
	w := pl.Get(3)
	for _, u := range rows(300, 3) {
		w.Insert(u, nil)
	}
	grown := cap(w.cols[0])
	pl.Put(w)
	if other := pl.Get(2); other == w || other.Dim() != 2 {
		t.Fatalf("asked for d=2, got a d=%d window (the pooled one: %v)", other.Dim(), other == w)
	}
	got := pl.Get(3)
	if got != w || got.Len() != 0 || got.Dim() != 3 || cap(got.cols[0]) != grown {
		t.Fatalf("pooled window: same %v, %d rows, d=%d, capacity %d (had %d)", got == w, got.Len(), got.Dim(), cap(got.cols[0]), grown)
	}
	if slices.ContainsFunc(got.rows[:cap(got.rows)], func(u tuple.Tuple) bool { return u != nil }) {
		t.Fatal("a pooled window still references rows")
	}
	checkPadding(t, got)
	fresh := New(3)
	var cg, cf Count
	for _, u := range rows(200, 3) {
		got.Insert(u, &cg)
		fresh.Insert(u, &cf)
	}
	if !sameRows(got.Rows(), fresh.Rows()) || cg != cf {
		t.Fatalf("pooled window built %v after %d tests, a fresh one %v after %d", got.Rows(), cg.DominanceTests, fresh.Rows(), cf.DominanceTests)
	}
	checkColumns(t, got)
	checkPadding(t, got)
	if again := pl.Get(3); again == got {
		t.Fatal("a window in use was handed out again")
	}

	var none *Pool
	none.Put(got)
	if w := none.Get(2); w == nil || w.Len() != 0 || w.Dim() != 2 {
		t.Fatalf("a nil Pool handed out %v", w)
	}
	if got.Len() == 0 {
		t.Fatal("a nil Pool emptied the window it was handed")
	}
}

// TestPoolConcurrentTasks: tasks that share a job's Pool from several
// goroutines each hold a window and a scratch no other task holds (run
// under -race): the Dominators window a task builds in its scratch keeps
// the task's values until the task keeps the scratch again.
func TestPoolConcurrentTasks(t *testing.T) {
	var pl Pool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				w, sc := pl.Get(2), pl.Scratch()
				for k := 0; k <= i%20; k++ {
					w.Append(tuple.Tuple{float64(g), float64(k)})
				}
				if w.Len() != i%20+1 || w.Rows()[0][0] != float64(g) {
					t.Errorf("goroutine %d: window holds %v", g, w.Rows())
				}
				ws, err := Dominators(2, [][][]byte{{w.AppendColumns(nil)}}, &sc)
				if err != nil || ws[0].Len() != w.Len() || ws[0].cols[0][0] != float64(g) {
					t.Errorf("goroutine %d: Dominators built %v (%v) from %d tuples", g, ws, err, w.Len())
				}
				pl.Put(w)
				pl.Keep(sc)
			}
		}()
	}
	wg.Wait()
}
