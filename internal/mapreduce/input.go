package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math"

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
// Encoded tuple input

// TupleArena is a dataset encoded as a job input: record i is the
// tuple.AppendEncode bytes of the i-th tuple (key nil), and every record
// has the same d dimensions and so the same stride, packed into one exactly
// sized []byte that holds no pointers. Its splits are views: Splits cuts at
// MemoryInput's boundaries into arenas clipped at the split's end, whose
// Each yields capacity-clipped windows of the records, so a job reads the
// same bytes in the same order as from TupleInput's records without a
// Record per tuple being held; an ArenaMapper is handed the split's arena
// itself. Put fills it; nothing that reads an input writes to it, so one
// arena serves every job of a run, concurrently.
type TupleArena struct {
	buf []byte
	// n records of d dimensions, stride bytes each: len(buf) is n·stride.
	n, d, stride int
}

// NewTupleArena returns an arena for n tuples of d dimensions, to be
// filled with Put.
func NewTupleArena(n, d int) TupleArena {
	stride := uvarintLen(uint64(d)) + 8*d
	return TupleArena{buf: make([]byte, n*stride), n: n, d: d, stride: stride}
}

// Put encodes t as record i; t must have the arena's d dimensions. Put is
// the one encoder of a job's input records: EncodeTuples, TupleInput and
// core.EncodeRows, every grid query's input pass, write through it.
func (a TupleArena) Put(i int, t tuple.Tuple) {
	if len(tuple.AppendEncode(a.record(i)[:0], t)) != a.stride {
		panic(fmt.Sprintf("mapreduce: %d-dimensional tuple put into a %d-dimensional arena", len(t), a.d))
	}
}

// record returns record i's bytes, a window that cannot grow into the
// next record.
func (a TupleArena) record(i int) []byte {
	return a.buf[i*a.stride : (i+1)*a.stride : (i+1)*a.stride]
}

// Len returns the number of records.
func (a TupleArena) Len() int { return a.n }

// Dim returns the records' dimensionality.
func (a TupleArena) Dim() int { return a.d }

// Load writes the tuple of record i into dst, which must have Dim values,
// reading its d float64s in place: the records are well-formed by
// construction, so there is no header to parse and nothing to fail.
func (a TupleArena) Load(i int, dst tuple.Tuple) {
	end := (i + 1) * a.stride
	b := a.buf[end-8*a.d : end]
	for k := range dst[:a.d] {
		dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
}

// Splits implements Input. Each split is an arena over a run of a's
// records whose capacity ends where the run does.
func (a TupleArena) Splits(hint int) ([]Split, error) {
	n := a.Len()
	splits := make([]Split, splitCount(n, hint))
	for i := range splits {
		lo, hi := i*n/len(splits), (i+1)*n/len(splits)
		end := hi * a.stride
		splits[i] = arenaSplit{buf: a.buf[lo*a.stride : end : end], n: hi - lo, d: a.d, stride: a.stride}
	}
	return splits, nil
}

// arenaSplit is a run of an arena's records, itself an arena.
type arenaSplit TupleArena

// Each yields each record's bytes as a window that cannot grow into the
// next record.
func (s arenaSplit) Each(fn func(Record) error) error {
	a := TupleArena(s)
	for i := range a.Len() {
		if err := fn(Record{Value: a.record(i)}); err != nil {
			return err
		}
	}
	return nil
}

// EncodeTuples encodes a tuple list, whose tuples must share one
// dimensionality, into a TupleArena: a copy, so later changes to the list
// do not reach it.
func EncodeTuples(data tuple.List) TupleArena {
	a := NewTupleArena(len(data), data.Dim())
	for i, t := range data {
		a.Put(i, t)
	}
	return a
}

// TupleInput is EncodeTuples with the arena's records listed, for callers
// that want the Records themselves; a job over a dataset reads the arena
// and holds no Record per tuple.
func TupleInput(data tuple.List) MemoryInput {
	a := EncodeTuples(data)
	recs := make([]Record, len(data))
	for i := range recs {
		recs[i] = Record{Value: a.record(i)}
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

// DecodeTupleRecord recovers a tuple from a TupleArena record.
func DecodeTupleRecord(rec Record) (tuple.Tuple, error) {
	t, _, err := tuple.Decode(rec.Value)
	return t, err
}

// ---------------------------------------------------------------------------
// Result chaining

// RecordsInput wraps the output of a previous job so it can feed the next
// one, split into the hinted number of chunks.
func RecordsInput(recs []Record) MemoryInput { return MemoryInput{Records: recs} }
