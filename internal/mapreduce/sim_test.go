package mapreduce

import (
	"runtime"
	"testing"
	"time"
)

func TestMakespanListScheduling(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Millisecond
		}
		return out
	}
	uniform := func(slots int) []float64 {
		out := make([]float64, slots)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	cases := []struct {
		name   string
		durs   []time.Duration
		speeds []float64
		want   time.Duration
	}{
		{"empty", nil, uniform(4), 0},
		{"single", ms(10), uniform(4), 10 * time.Millisecond},
		{"serial", ms(10, 20, 30), uniform(1), 60 * time.Millisecond},
		{"fully-parallel", ms(10, 20, 30), uniform(3), 30 * time.Millisecond},
		{"two-waves", ms(10, 10, 10, 10), uniform(2), 20 * time.Millisecond},
		{"greedy-fill", ms(30, 10, 10, 10), uniform(2), 30 * time.Millisecond},
		{"no-slots-clamped", ms(5, 5), nil, 10 * time.Millisecond},
		// A half-speed slot doubles its task: both tasks go to the fast
		// slot (earliest finish) for a 20ms makespan.
		{"heterogeneous", ms(10, 10), []float64{1, 0.5}, 20 * time.Millisecond},
		// With a big first task, the slow slot still takes the second.
		{"heterogeneous-split", ms(40, 10), []float64{1, 0.5}, 40 * time.Millisecond},
	}
	for _, c := range cases {
		if got := makespan(c.durs, c.speeds); got != c.want {
			t.Errorf("%s: makespan = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSimConfigDefaults(t *testing.T) {
	c := SimConfig{}.withDefaults()
	if c.TaskStartup != time.Second || c.JobSetup != 5*time.Second || c.NetBandwidth != 12_500_000 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = SimConfig{TaskStartup: time.Millisecond, JobSetup: time.Second, NetBandwidth: 1}.withDefaults()
	if c.TaskStartup != time.Millisecond || c.JobSetup != time.Second || c.NetBandwidth != 1 {
		t.Errorf("overrides lost: %+v", c)
	}
}

func TestSimulateComposition(t *testing.T) {
	c := SimConfig{
		TaskStartup:  time.Second,
		JobSetup:     2 * time.Second,
		NetBandwidth: 1000, // bytes/s
	}
	mapDurs := []time.Duration{time.Second, time.Second}
	reduceDurs := []time.Duration{3 * time.Second}
	// 2000 bytes to the single reducer → 2s shuffle.
	got := c.simulate(mapDurs, reduceDurs, []int64{2000}, []float64{1, 1})
	// setup 2s + map makespan (1+1 startup = 2s parallel) + shuffle 2s +
	// reduce (3+1 = 4s) = 10s.
	want := 10 * time.Second
	if got != want {
		t.Errorf("simulate = %v, want %v", got, want)
	}
}

func TestSimulateShuffleIsMaxPerReducer(t *testing.T) {
	c := SimConfig{TaskStartup: 0, JobSetup: 0, NetBandwidth: 1000}
	c = SimConfig{TaskStartup: time.Nanosecond, JobSetup: time.Nanosecond, NetBandwidth: 1000}
	// Reducers pull in parallel: the slowest link dominates.
	a := c.simulate(nil, nil, []int64{1000, 4000, 2000}, []float64{1, 1, 1, 1})
	b := c.simulate(nil, nil, []int64{4000}, []float64{1, 1, 1, 1})
	if a != b {
		t.Errorf("parallel shuffle: %v vs %v", a, b)
	}
	if a < 4*time.Second {
		t.Errorf("shuffle time %v, want ≥ 4s", a)
	}
}

func TestSingleReducerBottleneckVisibleInSimTime(t *testing.T) {
	// The effect the simulation exists for: the same total reduce work is
	// slower through one reducer than spread over many.
	c := SimConfig{TaskStartup: time.Millisecond, JobSetup: time.Millisecond, NetBandwidth: 1 << 40}
	slots := make([]float64, 26)
	for i := range slots {
		slots[i] = 1
	}
	single := c.simulate(nil, []time.Duration{8 * time.Second}, []int64{0}, slots)
	spread := c.simulate(nil, []time.Duration{
		time.Second, time.Second, time.Second, time.Second,
		time.Second, time.Second, time.Second, time.Second,
	}, make([]int64, 8), slots)
	if spread >= single {
		t.Errorf("parallel reduce %v not faster than single %v", spread, single)
	}
}

func TestMeasureSlots(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	cases := []struct {
		par, clusterSlots, want int
	}{
		{0, 1024, min(procs, 1024)}, // default: min(GOMAXPROCS, slots)
		{0, 1, 1},                   // tiny cluster bounds the default
		{1, 1024, 1},                // serial isolation mode
		{4, 2, 4},                   // explicit values pass through unclamped
		{-3, 1024, min(procs, 1024)},
	}
	for _, c := range cases {
		cfg := &SimConfig{MeasureParallelism: c.par}
		if got := cfg.measureSlots(c.clusterSlots); got != c.want {
			t.Errorf("measureSlots(par=%d, slots=%d) = %d, want %d", c.par, c.clusterSlots, got, c.want)
		}
	}
}
