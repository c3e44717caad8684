package maintain

import (
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/tuple"
)

// churnClient is one serve-churn client's write stream: 64-delta batches,
// the first churnInsertOnly of them insert-only, every later one deleting
// the client's 32 oldest live inserts and inserting 32 fresh rows.
type churnClient struct {
	pool    tuple.List // rows the client inserts, in order
	next    int
	live    tuple.List // inserted and not yet deleted, oldest first
	batches int
}

const (
	churnBatch      = 64
	churnInsertOnly = 10
	churnCounted    = 200 // the batches BenchmarkMaintainChurn counts over
)

func (c *churnClient) nextBatch() []Delta {
	ins, del := churnBatch, 0
	if c.batches >= churnInsertOnly {
		ins, del = churnBatch/2, churnBatch/2
	}
	batch := make([]Delta, 0, churnBatch)
	for _, row := range c.live[:del] {
		batch = append(batch, Delta{Op: OpDelete, Row: row})
	}
	c.live = c.live[del:]
	for i := 0; i < ins; i++ {
		row := c.pool[c.next%len(c.pool)]
		c.next++
		batch = append(batch, Delta{Op: OpInsert, Row: row})
		c.live = append(c.live, row)
	}
	c.batches++
	return batch
}

// BenchmarkMaintainChurn is serve-churn's write path without the daemon,
// the log or the JSON: two clients' delta batches, alternating, applied to
// a maintained skyline seeded with anticorrelated 200 000 × 4 rows. Each
// client's insert-only batches run before the timer starts, so every timed
// batch is 32 deletes of the client's oldest inserts plus 32 inserts. It
// reports the time per batch (ns/op) and, over the churnCounted untimed
// batches that follow the insert-only ones, the exact dominance tests and
// contribution recomputes per batch, which therefore repeat at every
// -benchtime.
func BenchmarkMaintainChurn(b *testing.B) {
	seed := datagen.Generate(datagen.AntiCorrelated, 200_000, 4, 7)
	clients := make([]*churnClient, 2)
	for i := range clients {
		clients[i] = &churnClient{pool: datagen.Generate(datagen.AntiCorrelated, 20_000, 4, 107+int64(i))}
	}
	m, err := New(seed, Config{})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	apply := func() {
		if _, err := m.Apply(clients[next%len(clients)].nextBatch()); err != nil {
			b.Fatal(err)
		}
		next++
	}
	for next < churnInsertOnly*len(clients) {
		apply()
	}
	before := m.Stats()
	for i := 0; i < churnCounted; i++ {
		apply()
	}
	after := m.Stats()
	batches := make([][]Delta, b.N)
	for i := range batches {
		batches[i] = clients[(next+i)%len(clients)].nextBatch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if _, err := m.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(after.DominanceTests-before.DominanceTests)/churnCounted, "tests/batch")
	b.ReportMetric(float64(after.ContribRecomputes-before.ContribRecomputes)/churnCounted, "recomputes/batch")
}
