package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"

	mrskyline "mrskyline"
)

// The row reader: a request's row matrix is read out of the body bytes
// here, never by encoding/json. liftRows finds the top-level "data"
// members and hands their values to readMatrix, which checks each number
// against RFC 8259's grammar byte by byte and converts it with
// strconv.ParseFloat, the call encoding/json makes, so every float is the
// one the stdlib would have decoded. What it accepts is what encoding/json
// accepts for a [][]float64 except null: a null row or coordinate is an
// error here, where the stdlib would serve it as an empty row or a 0.

// liftRows reads the value of every top-level member of body whose key
// folds to "data" (bytes.EqualFold, encoding/json's rule for a field
// name) and returns the last one's rows with the envelope: body with each
// such value replaced by null. found reports whether there was one; its
// rows are nil when it was null. A body that is not an object is returned
// as it is, for encoding/json to judge.
//
// liftRows checks the object's own punctuation and skips every other
// member's value only far enough to find its end; the envelope keeps those
// bytes, so encoding/json still parses and rejects them exactly as it
// would have the whole body.
func liftRows(body []byte) (envelope []byte, rows [][]float64, found bool, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return body, nil, false, nil
	}
	var lifted [][2]int // [start, end) of each matrix value
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return body, nil, false, nil
	}
	for {
		if i == len(body) || body[i] != '"' {
			return nil, nil, false, syntaxErr(body, i, "want a member name")
		}
		end, err := skipString(body, i)
		if err != nil {
			return nil, nil, false, err
		}
		isData := isDataKey(body[i:end])
		i = skipSpace(body, end)
		if i == len(body) || body[i] != ':' {
			return nil, nil, false, syntaxErr(body, i, "want ':' after a member name")
		}
		i = skipSpace(body, i+1)
		switch {
		case !isData:
			i, err = skipValue(body, i)
		case bytes.HasPrefix(body[i:], []byte("null")):
			rows, found = nil, true
			i += len("null")
		case i < len(body) && body[i] == '[':
			start := i
			rows, i, err = readMatrix(body, i)
			found = true
			lifted = append(lifted, [2]int{start, i})
		default:
			err = errors.New(`"data" must be an array of rows or null`)
		}
		if err != nil {
			return nil, nil, false, err
		}
		i = skipSpace(body, i)
		if i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
			continue
		}
		if i < len(body) && body[i] == '}' {
			break
		}
		return nil, nil, false, syntaxErr(body, i, "want ',' or '}' after a member")
	}
	if len(lifted) == 0 {
		return body, rows, found, nil
	}
	size := len(body)
	for _, l := range lifted {
		size -= l[1] - l[0] - len("null")
	}
	envelope = make([]byte, 0, size)
	prev := 0
	for _, l := range lifted {
		envelope = append(append(envelope, body[prev:l[0]]...), "null"...)
		prev = l[1]
	}
	return append(envelope, body[prev:]...), rows, found, nil
}

// isDataKey reports whether the quoted member name key names "data". A
// name holding escapes is unquoted by encoding/json's own rule; one it
// cannot unquote names nothing, and encoding/json rejects it later.
func isDataKey(key []byte) bool {
	name := key[1 : len(key)-1]
	if bytes.IndexByte(name, '\\') >= 0 {
		var s string
		if json.Unmarshal(key, &s) != nil {
			return false
		}
		name = []byte(s)
	}
	return bytes.EqualFold(name, []byte("data"))
}

// readMatrix reads the row matrix that starts at b[i] ('[') and returns its
// rows and the index just past it. A first pass checks the grammar and
// counts the rows and numbers; the second converts every number into one
// exactly sized flat block that the rows view with clipped capacities, so
// a row cannot grow into its neighbour.
func readMatrix(b []byte, i int) ([][]float64, int, error) {
	nrows, nvals, end, err := scanMatrix(b, i)
	if err != nil {
		return nil, 0, err
	}
	flat := make([]float64, nvals)
	rows := make([][]float64, nrows)
	off := 0
	i = skipSpace(b, i+1)
	for r := range rows {
		j, n, err := fillRow(b, i, flat[off:])
		if err != nil {
			return nil, 0, fmt.Errorf(`"data"[%d]%w`, r, err)
		}
		rows[r] = flat[off : off+n : off+n]
		off += n
		i = skipSpace(b, j)
		if b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	return rows, end, nil
}

// scanMatrix checks the row matrix that starts at b[i] ('['): an array of
// arrays of JSON numbers. It returns the number of rows and of numbers and
// the index just past the matrix.
func scanMatrix(b []byte, i int) (nrows, nvals, end int, err error) {
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return 0, 0, i + 1, nil
	}
	for {
		j, n, err := scanRow(b, i)
		if err != nil {
			return 0, 0, 0, fmt.Errorf(`"data"[%d]%w`, nrows, err)
		}
		nrows++
		nvals += n
		i = skipSpace(b, j)
		switch {
		case i == len(b):
			return 0, 0, 0, fmt.Errorf(`"data": %w`, errEnd)
		case b[i] == ']':
			return nrows, nvals, i + 1, nil
		case b[i] != ',':
			return 0, 0, 0, fmt.Errorf(`"data"[%d]: want ',' or ']' after a row, found %q`, nrows-1, b[i])
		}
		i = skipSpace(b, i+1)
	}
}

// scanRow checks the row that starts at b[i]: '[', JSON numbers separated
// by commas, ']'. It returns the index just past the row and its width. An
// error names the column it failed at as "[j]: …".
func scanRow(b []byte, i int) (end, width int, err error) {
	if i == len(b) {
		return 0, 0, fmt.Errorf(": %w", errEnd)
	}
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return 0, 0, fmt.Errorf(": %w is not a row", errNull)
	}
	if b[i] != '[' {
		return 0, 0, fmt.Errorf(": a row must be an array of numbers, found %s", token(b, i))
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, 0, nil
	}
	for {
		j, err := numberEnd(b, i)
		if err != nil {
			return 0, 0, fmt.Errorf("[%d]: %w", width, err)
		}
		width++
		i = skipSpace(b, j)
		switch {
		case i == len(b):
			return 0, 0, fmt.Errorf(": %w", errEnd)
		case b[i] == ']':
			return i + 1, width, nil
		case b[i] != ',':
			return 0, 0, fmt.Errorf("[%d]: want ',' or ']' after a number, found %q", width-1, b[i])
		}
		i = skipSpace(b, i+1)
	}
}

// fillRow converts the numbers of the row that starts at b[i], which
// scanRow has checked, into dst. It returns the index just past the row
// and the row's width. This is the one place a body's number becomes a
// float64.
func fillRow(b []byte, i int, dst []float64) (end, width int, err error) {
	i = skipSpace(b, i+1)
	for b[i] != ']' {
		j := i + 1
		for numberByte[b[j]] {
			j++
		}
		v, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("[%d]: number %s is out of range", width, b[i:j])
		}
		dst[width] = v
		width++
		i = skipSpace(b, j)
		if b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	return i + 1, width, nil
}

// readRow reads one row — b, a JSON value encoding/json has already
// delimited — through the same grammar and conversion as a matrix's rows.
func readRow(b []byte) ([]float64, error) {
	_, n, err := scanRow(b, 0)
	if err != nil {
		return nil, err
	}
	row := make([]float64, n)
	_, _, err = fillRow(b, 0, row)
	return row, err
}

// deltaJSON is one delta of a POST …/deltas body, mrskyline.Delta with a
// row that decodes through readRow: a null or a non-JSON number in it is a
// 400 instead of a 0.
type deltaJSON struct {
	Op  mrskyline.DeltaOp `json:"op"`
	Row rowJSON           `json:"row"`
}

type rowJSON []float64

func (r *rowJSON) UnmarshalJSON(b []byte) error {
	row, err := readRow(b)
	if err != nil {
		return fmt.Errorf(`"row"%w`, err)
	}
	*r = row
	return nil
}

var (
	errEnd = errors.New("unexpected end of body")
	// errNull marks a null where a number or a row must be: encoding/json
	// would decode it as 0 or an empty row, a row the client never sent.
	errNull = errors.New("null")
)

// numberEnd checks RFC 8259's number grammar,
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// from b[i] and returns the index just past the number. So NaN, Infinity,
// hex, a leading '+', leading zeros, ".5", "1." and null are all errors.
func numberEnd(b []byte, i int) (int, error) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, notNumber(b, start)
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, notNumber(b, start)
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, notNumber(b, start)
		}
		i = j
	}
	if i < len(b) && isNumberByte(b[i]) {
		return 0, notNumber(b, start)
	}
	return i, nil
}

// numberByte holds the bytes of a checked number, so that the end of one
// is the first byte it does not hold.
var numberByte = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'.': true, 'e': true, 'E': true, '+': true, '-': true,
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// isNumberByte reports whether c may continue a number-like token, so that
// "01", "1.2.3" and "0x10" fail whole rather than as a number and a stray.
func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '+' || c == '-'
}

// notNumber words the failure of numberEnd at b[start].
func notNumber(b []byte, start int) error {
	if start == len(b) {
		return errEnd
	}
	if bytes.HasPrefix(b[start:], []byte("null")) {
		return fmt.Errorf("%w is not a number", errNull)
	}
	return fmt.Errorf("want a JSON number, found %s", token(b, start))
}

// token quotes the number-like run of bytes at b[i], or the one byte there.
func token(b []byte, i int) string {
	j := i
	for j < len(b) && j-i < 32 && isNumberByte(b[j]) {
		j++
	}
	if j == i {
		j = i + 1
	}
	return strconv.Quote(string(b[i:j]))
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string that starts at b[i]
// ('"'), stepping over escaped bytes.
func skipString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return 0, syntaxErr(b, len(b), "unterminated string")
}

// skipValue returns the index just past the JSON value that starts at
// b[i]: an array or object by its balanced brackets (counted, not recursed,
// so any depth costs no stack), a string or scalar up to the next
// delimiter. It checks no more than finding the end needs; encoding/json
// parses the value itself.
func skipValue(b []byte, i int) (int, error) {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			j, err := skipString(b, i)
			if err != nil {
				return 0, err
			}
			i = j - 1
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i, nil
			}
			if depth--; depth == 0 {
				return i + 1, nil
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, nil
			}
		}
	}
	if depth > 0 {
		return 0, syntaxErr(b, len(b), "unterminated value")
	}
	return i, nil
}

func syntaxErr(b []byte, i int, what string) error {
	if i >= len(b) {
		return fmt.Errorf("%s: %w", what, errEnd)
	}
	return fmt.Errorf("%s at byte %d, found %q", what, i, b[i])
}

// skylineText is one generation of a maintained skyline as the body of a
// changed poll — {"changed":true,"gen":G,"skyline":[…]} and a newline, the
// bytes encoding/json writes for that map — with what the next
// generation's build reads: the rows it holds, where each row's text lies
// and an index from a row's bits to its position. It is never written to
// once built, so a response may still be sending body after the next
// generation has replaced it.
type skylineText struct {
	gen  uint64
	body []byte
	rows [][]float64
	// Row i's text is body[offs[i] : offs[i+1]-1]; the byte after it is
	// the ',' before the next row or the matrix's ']'.
	offs []int
	// index is an open-addressing table, a power of two long, of row
	// positions plus one (0 is an empty slot), probed linearly from the
	// row's rowHash.
	index []int32
	// err is encoding/json's error on a row, which leaves the text
	// unfinished. No skyline holds a NaN or an infinity, so none has one.
	err error
}

// next builds the text of snap, a later generation than t's (t may be
// nil). A row whose bits equal a row of t copies that row's text; every
// other row is formatted by encoding/json.
func (t *skylineText) next(snap *mrskyline.MaintainedSnapshot) *skylineText {
	rows := snap.Skyline
	nt := &skylineText{gen: snap.Gen, rows: rows, offs: make([]int, len(rows)+1)}
	if len(rows) > 0 {
		nt.index = make([]int32, 1<<bits.Len(uint(2*len(rows))))
	}
	mask := uint64(len(nt.index) - 1)
	size := 64
	if t != nil {
		size += len(t.body) + len(t.body)/8
	}
	b := append(make([]byte, 0, size), `{"changed":true,"gen":`...)
	b = strconv.AppendUint(b, snap.Gen, 10)
	b = append(b, `,"skyline":[`...)
	var h uint64
	var scratch []byte
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		nt.offs[i] = len(b)
		h, scratch = rowHash(row, scratch)
		if j := t.find(row, h); j >= 0 {
			b = append(b, t.body[t.offs[j]:t.offs[j+1]-1]...)
		} else {
			text, err := json.Marshal(row)
			if err != nil {
				nt.err = fmt.Errorf("skyline row %d: %w", i, err)
				return nt
			}
			b = append(b, text...)
		}
		k := h & mask
		for nt.index[k] != 0 {
			k = (k + 1) & mask
		}
		nt.index[k] = int32(i + 1)
	}
	b = append(b, ']')
	nt.offs[len(rows)] = len(b)
	nt.body = append(b, "}\n"...)
	return nt
}

// find returns the position of a row of t whose bits equal row's, or -1.
// h is rowHash(row). A candidate is compared bit for bit, never trusted on
// its hash, so −0 never finds 0.
func (t *skylineText) find(row []float64, h uint64) int {
	if t == nil || len(t.index) == 0 {
		return -1
	}
	mask := uint64(len(t.index) - 1)
	for k := h & mask; t.index[k] != 0; k = (k + 1) & mask {
		if j := int(t.index[k] - 1); sameBits(t.rows[j], row) {
			return j
		}
	}
	return -1
}

// rowSeed keys rowHash, so that which rows collide is not known to a
// client choosing them.
var rowSeed = maphash.MakeSeed()

// rowHash hashes row's bits, using scratch (returned, grown) for the bytes.
func rowHash(row []float64, scratch []byte) (uint64, []byte) {
	scratch = scratch[:0]
	for _, v := range row {
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(v))
	}
	return maphash.Bytes(rowSeed, scratch), scratch
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
