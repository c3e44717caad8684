package mapreduce

import "mrskyline/internal/tuple"

// Input provides the splits of a job's input data: hint is the desired
// split count, one split per map task. Inputs live in memory — where a
// split's bytes sit is not modelled (no SimConfig cost depends on it), so a
// split is just its records.
type Input interface {
	Splits(hint int) ([]Split, error)
}

// Split is one mapper's share of the input.
type Split interface {
	// Each streams the split's records in order.
	Each(fn func(Record) error) error
}

// ---------------------------------------------------------------------------
// In-memory record input

// MemoryInput serves records from memory, chunked into the hinted number of
// splits. Every job reads one: a dataset through TupleInput, a previous
// job's output through RecordsInput.
type MemoryInput struct {
	// Records are served in order, round-robin-free: split i gets the i-th
	// contiguous chunk.
	Records []Record
}

// Splits implements Input.
func (m MemoryInput) Splits(hint int) ([]Split, error) {
	if hint < 1 {
		hint = 1
	}
	n := len(m.Records)
	if hint > n && n > 0 {
		hint = n
	}
	if n == 0 {
		return []Split{memorySplit(nil)}, nil
	}
	splits := make([]Split, 0, hint)
	for i := 0; i < hint; i++ {
		lo := i * n / hint
		hi := (i + 1) * n / hint
		splits = append(splits, memorySplit(m.Records[lo:hi]))
	}
	return splits, nil
}

type memorySplit []Record

func (s memorySplit) Each(fn func(Record) error) error {
	for _, r := range s {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// TupleInput adapts a tuple list into an input: each record's value is the
// binary encoding of one tuple (key nil). Every value is a capacity-clipped
// window of one exactly sized arena, so the input is the arena plus the
// record slice whatever the cardinality, and it copies data: later changes
// to the list do not reach it. Building it is a full encoding pass, and
// nothing that reads an input writes to it, so internal/core builds one per
// run and gives the same input to the bitstring job and the skyline job.
func TupleInput(data tuple.List) MemoryInput {
	size := 0
	for _, t := range data {
		size += uvarintLen(uint64(len(t))) + 8*len(t)
	}
	buf := make([]byte, 0, size)
	recs := make([]Record, len(data))
	for i, t := range data {
		start := len(buf)
		buf = tuple.AppendEncode(buf, t)
		recs[i] = Record{Value: buf[start:len(buf):len(buf)]}
	}
	return MemoryInput{Records: recs}
}

// uvarintLen returns the encoded size of v, mirroring binary.AppendUvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeTupleRecord recovers a tuple from a TupleInput record.
func DecodeTupleRecord(rec Record) (tuple.Tuple, error) {
	t, _, err := tuple.Decode(rec.Value)
	return t, err
}

// ---------------------------------------------------------------------------
// Result chaining

// RecordsInput wraps the output of a previous job so it can feed the next
// one, split into the hinted number of chunks.
func RecordsInput(recs []Record) MemoryInput { return MemoryInput{Records: recs} }
