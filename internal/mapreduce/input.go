package mapreduce

import (
	"encoding/binary"
	"fmt"

	"mrskyline/internal/tuple"
)

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

// splitCount resolves a split hint for n records: at least one split, and
// no more splits than records when there are any. Split i of k holds
// records [i·n/k, (i+1)·n/k), the boundaries every Input here uses.
func splitCount(n, hint int) int {
	k := max(hint, 1)
	if n > 0 {
		k = min(k, n)
	}
	return k
}

// ---------------------------------------------------------------------------
// In-memory record input

// MemoryInput serves records from memory, chunked into the hinted number of
// splits. A previous job's output feeds the next one through RecordsInput.
type MemoryInput struct {
	// Records are served in order, round-robin-free: split i gets the i-th
	// contiguous chunk.
	Records []Record
}

// Splits implements Input.
func (m MemoryInput) Splits(hint int) ([]Split, error) {
	n := len(m.Records)
	splits := make([]Split, splitCount(n, hint))
	for i := range splits {
		splits[i] = memorySplit(m.Records[i*n/len(splits) : (i+1)*n/len(splits)])
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

// ---------------------------------------------------------------------------
// Tuple input

// TupleRows is a dataset held as a job input in place: record i is the
// tuple.AppendEncode bytes of row i (key nil). Every row must have the same
// width, as core.EncodeRows, which checks the rows, guarantees. Its splits
// are views: Splits cuts at MemoryInput's boundaries into capacity-clipped
// runs of the rows. A RowsMapper is handed a split's rows themselves; only a consumer of records — the leased driver framing a
// split, or a Mapper's Map — makes Each encode them, so a job reads the
// same bytes in the same order as from TupleInput's records. Nothing that
// reads an input writes to it, so one TupleRows serves every job of a run,
// concurrently, and a mapper may keep a row it is handed.
type TupleRows [][]float64

// Splits implements Input.
func (r TupleRows) Splits(hint int) ([]Split, error) {
	n := len(r)
	splits := make([]Split, splitCount(n, hint))
	for i := range splits {
		lo, hi := i*n/len(splits), (i+1)*n/len(splits)
		splits[i] = rowsSplit(r[lo:hi:hi])
	}
	return splits, nil
}

// rowsSplit is a run of a TupleRows' rows.
type rowsSplit [][]float64

// Each encodes the split's rows into one exactly sized buffer and yields
// each row's record.
func (s rowsSplit) Each(fn func(Record) error) error { return eachEncoded(s, fn) }

// eachEncoded encodes rows into one exactly sized buffer and yields each
// row's record, a window of the buffer that cannot grow into the next
// record. It is the one encoder of a job's input records: TupleInput and
// TupleRows' splits write through it.
func eachEncoded[R ~[]float64](rows []R, fn func(Record) error) error {
	size := 0
	for _, r := range rows {
		size += uvarintLen(uint64(len(r))) + 8*len(r)
	}
	buf := make([]byte, 0, size)
	for _, r := range rows {
		start := len(buf)
		buf = tuple.AppendEncode(buf, tuple.Tuple(r))
		if err := fn(Record{Value: buf[start:len(buf):len(buf)]}); err != nil {
			return err
		}
	}
	return nil
}

// TupleInput lists a tuple list's records, encoded as TupleRows' are, for
// callers that want the Records themselves; a grid query's job reads
// TupleRows and holds no Record per tuple.
func TupleInput(data tuple.List) MemoryInput {
	recs := make([]Record, 0, len(data))
	eachEncoded(data, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
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

// splitRows returns a split's rows for a RowsMapper. A TupleRows split's
// rows are returned as they are: TupleRows' own contract is one width. Any
// other split's records are decoded once into one batch: one []float64 for
// the values and capacity-clipped row views into it, every record checked
// to be exactly one encoded tuple of the first record's dimensionality.
func splitRows(split Split) ([][]float64, error) {
	if s, ok := split.(rowsSplit); ok {
		return s, nil
	}
	recs, ok := split.(memorySplit)
	if !ok {
		if err := split.Each(func(rec Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if len(recs) == 0 {
		return nil, nil
	}
	d, h := binary.Uvarint(recs[0].Value)
	if h <= 0 || d > uint64(len(recs[0].Value)/8) {
		return nil, fmt.Errorf("mapreduce: a %d-byte record is not one encoded tuple", len(recs[0].Value))
	}
	k := int(d)
	flat := make([]float64, len(recs)*k)
	rows := make([][]float64, len(recs))
	for i, rec := range recs {
		t, m, err := tuple.DecodeInto(flat[i*k:(i+1)*k:(i+1)*k], rec.Value)
		if err != nil || len(t) != k || m != len(rec.Value) {
			return nil, fmt.Errorf("mapreduce: a %d-byte record is not one encoded tuple of %d dimensions", len(rec.Value), k)
		}
		rows[i] = t
	}
	return rows, nil
}

// DecodeTupleRecord recovers a tuple from a TupleInput or TupleRows record.
func DecodeTupleRecord(rec Record) (tuple.Tuple, error) {
	t, _, err := tuple.Decode(rec.Value)
	return t, err
}

// ---------------------------------------------------------------------------
// Result chaining

// RecordsInput wraps the output of a previous job so it can feed the next
// one, split into the hinted number of chunks.
func RecordsInput(recs []Record) MemoryInput { return MemoryInput{Records: recs} }
