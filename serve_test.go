package mrskyline_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	mrskyline "mrskyline"
)

func newTestService(t *testing.T, cfg mrskyline.ServiceConfig) *mrskyline.Service {
	t.Helper()
	svc, err := mrskyline.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceConcurrentQueries fires 32 concurrent mixed queries at one
// service and requires all of them to succeed with correct results.
func TestServiceConcurrentQueries(t *testing.T) {
	svc := newTestService(t, mrskyline.ServiceConfig{Nodes: 2, MaxInFlight: 4, MaxQueue: 64})
	data, err := mrskyline.Generate("correlated", 300, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mrskyline.Compute(data, mrskyline.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				res, err := svc.Compute(context.Background(), data, mrskyline.Options{})
				if err == nil && !sameSet(res.Skyline, want.Skyline) {
					err = errors.New("wrong skyline under concurrency")
				}
				errs[i] = err
			case 1:
				unb := []mrskyline.Range{mrskyline.Unbounded(), mrskyline.Unbounded(), mrskyline.Unbounded()}
				res, err := svc.Dataset(data).ComputeConstrained(context.Background(), unb, mrskyline.Options{})
				if err == nil && !sameSet(res.Skyline, want.Skyline) {
					err = errors.New("wrong constrained skyline under concurrency")
				}
				errs[i] = err
			default:
				_, errs[i] = svc.Dataset(data).ComputeSubspace(context.Background(), []int{0, 1}, mrskyline.Options{})
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}

	st := svc.Stats()
	if st.Admitted < n {
		t.Errorf("admitted = %d, want ≥ %d", st.Admitted, n)
	}
	if st.InFlight != 0 || st.Queued != 0 || st.BusySlots != 0 {
		t.Errorf("service not idle after queries: %+v", st)
	}
}

func TestServiceTimeout(t *testing.T) {
	svc := newTestService(t, mrskyline.ServiceConfig{Nodes: 2, QueryTimeout: time.Nanosecond})
	data, err := mrskyline.Generate("independent", 500, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compute(context.Background(), data, mrskyline.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timed-out query error = %v, want DeadlineExceeded", err)
	}
	if got := svc.Stats(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("service not idle after timeout: %+v", got)
	}
}

// TestServiceExpiredContextBeforeFiltering is the regression for the
// serve-path deadline bug: the per-query deadline used to start only
// AFTER constraint filtering / subspace projection, so a caller context
// that was already expired still paid for the full dataset scan. The
// deadline now covers the filtering work too: an expired context must
// fail with its context error on every query path.
func TestServiceExpiredContextBeforeFiltering(t *testing.T) {
	svc := newTestService(t, mrskyline.ServiceConfig{Nodes: 2})
	data, err := mrskyline.Generate("independent", 2000, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before the call

	unb := []mrskyline.Range{mrskyline.Unbounded(), mrskyline.Unbounded(), mrskyline.Unbounded()}
	if _, err := svc.Dataset(data).ComputeConstrained(ctx, unb, mrskyline.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ComputeConstrained with expired context = %v, want context.Canceled", err)
	}
	if _, err := svc.Dataset(data).ComputeSubspace(ctx, []int{0, 2}, mrskyline.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ComputeSubspace with expired context = %v, want context.Canceled", err)
	}
	// An expired deadline surfaces as DeadlineExceeded likewise.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := svc.Dataset(data).ComputeConstrained(dctx, unb, mrskyline.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ComputeConstrained with past deadline = %v, want DeadlineExceeded", err)
	}
	// Constraint filtering down to an empty set still honors the expired
	// context (the empty-result fast path must not mask it).
	none := []mrskyline.Range{{Min: 99, Max: 100}, mrskyline.Unbounded(), mrskyline.Unbounded()}
	if _, err := svc.Dataset(data).ComputeConstrained(ctx, none, mrskyline.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ComputeConstrained(empty result) with expired context = %v, want context.Canceled", err)
	}
	// Validation errors still win over the context: bad arguments are
	// caller bugs regardless of deadline.
	if _, err := svc.Dataset(data).ComputeSubspace(ctx, []int{0, 0}, mrskyline.Options{}); errors.Is(err, context.Canceled) {
		t.Error("duplicate-dims validation masked by expired context")
	}
}

func TestServiceOverload(t *testing.T) {
	// MaxQueue < 0 rejects whenever the single in-flight slot is busy.
	svc := newTestService(t, mrskyline.ServiceConfig{Nodes: 2, MaxInFlight: 1, MaxQueue: -1})
	data, err := mrskyline.Generate("anticorrelated", 8000, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Compute(context.Background(), data, mrskyline.Options{})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := svc.Stats(); st.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first query never reached in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	_, err = svc.Compute(context.Background(), [][]float64{{1, 2}}, mrskyline.Options{})
	if !errors.Is(err, mrskyline.ErrOverloaded) {
		t.Errorf("second query error = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if st := svc.Stats(); st.Rejected < 1 {
		t.Errorf("rejected = %d, want ≥ 1", st.Rejected)
	}
}

func TestServiceMetricsJSON(t *testing.T) {
	svc := newTestService(t, mrskyline.ServiceConfig{Nodes: 2})
	if _, err := svc.Compute(context.Background(), [][]float64{{1, 2}, {2, 1}}, mrskyline.Options{}); err != nil {
		t.Fatal(err)
	}
	raw, err := svc.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "mr.queue.admitted" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("mr.queue.admitted missing from metrics JSON: %s", raw)
	}
}

// TestSpillConfigSharedAcrossFrontEnds: every front end routes the spill
// budget/dir pair through the same shared rule, so the same bad configs
// fail everywhere — they used to be three slightly different checks.
func TestSpillConfigSharedAcrossFrontEnds(t *testing.T) {
	bad := []struct {
		name   string
		budget int64
		dir    string
	}{
		{"negative budget", -1, ""},
		{"dir without budget", 0, t.TempDir()},
		{"missing dir", 1 << 20, "/no/such/dir/exists/here"},
	}
	for _, c := range bad {
		if _, err := mrskyline.NewService(mrskyline.ServiceConfig{SpillBudget: c.budget, SpillDir: c.dir}); err == nil {
			t.Errorf("NewService accepted %s", c.name)
		}
		opts := mrskyline.Options{SpillBudget: c.budget, SpillDir: c.dir}
		if _, err := mrskyline.Compute(nil, opts); err == nil {
			t.Errorf("Compute options accepted %s", c.name)
		}
	}
	// Budget without dir is fine everywhere (the system temp dir is the
	// default spill location).
	if _, err := mrskyline.Compute(nil, mrskyline.Options{SpillBudget: 1 << 20}); err != nil {
		t.Errorf("Compute rejected budget-without-dir: %v", err)
	}
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{SpillBudget: 1 << 20})
	if err != nil {
		t.Errorf("NewService rejected budget-without-dir: %v", err)
	} else {
		svc.Close()
	}
}
