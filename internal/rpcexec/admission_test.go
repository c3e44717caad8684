package rpcexec

import (
	"context"
	"errors"
	"testing"
	"time"

	"mrskyline"
	"mrskyline/internal/datagen"
	"mrskyline/internal/obs"
)

// TestServiceAdmissionOverWorkers: the Service's admission bounds apply to
// whichever executor runs its jobs. Over worker processes' code (hosted
// in-process), MaxInFlight 1 with no queue rejects a second concurrent query
// and reports the controller's state — where the process backend used to
// admit everything.
func TestServiceAdmissionOverWorkers(t *testing.T) {
	pe := inprocExec(t, 2)
	tr := obs.New()
	pe.SetTrace(tr)
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Executor: pe, MaxInFlight: 1, MaxQueue: -1})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	rows := func(n int) [][]float64 {
		data := make([][]float64, n)
		for i, tp := range datagen.Generate(datagen.AntiCorrelated, n, 5, 1) {
			data[i] = tp
		}
		return data
	}
	// MR-BNL is one job, so the first query stays admitted from start to end.
	opts := mrskyline.Options{Algorithm: mrskyline.MRBNL}
	first := make(chan error, 1)
	go func() {
		_, err := svc.Compute(context.Background(), rows(20000), opts)
		first <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().InFlight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("first query was never admitted")
		}
	}
	if _, err := svc.Compute(context.Background(), rows(100), opts); !errors.Is(err, mrskyline.ErrOverloaded) {
		t.Fatalf("second concurrent query: err = %v, want ErrOverloaded", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if st := svc.Stats(); st.InFlight != 0 || st.Queued != 0 || st.Admitted != 1 || st.Rejected != 1 || st.TotalSlots != 2 {
		t.Errorf("Stats = %+v, want 1 admitted, 1 rejected, nothing in flight", st)
	}
}
