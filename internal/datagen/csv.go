package datagen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"mrskyline/internal/tuple"
)

// WriteCSV writes the tuples as comma-separated lines, one tuple per line,
// using the shortest float formatting that round-trips.
func WriteCSV(w io.Writer, l tuple.List) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range l {
		var err error
		if line, err = writeTupleLine(bw, line, t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// StreamCSV generates card tuples from the distribution and writes them to w
// as CSV without ever holding the dataset in memory. The output is
// byte-identical to WriteCSV(w, Generate(dist, card, d, seed)).
func StreamCSV(w io.Writer, dist Distribution, card, d int, seed int64) error {
	bw := bufio.NewWriter(w)
	var line []byte
	err := Stream(dist, card, d, seed, func(t tuple.Tuple) (err error) {
		line, err = writeTupleLine(bw, line, t)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeTupleLine writes one tuple as one CSV line, formatted into line's
// storage, which it returns for the next line.
func writeTupleLine(bw *bufio.Writer, line []byte, t tuple.Tuple) ([]byte, error) {
	line = line[:0]
	for k, v := range t {
		if k > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendFloat(line, v, 'g', -1, 64)
	}
	line = append(line, '\n')
	_, err := bw.Write(line)
	return line, err
}

// ReadCSV parses tuples from comma-separated lines. Blank lines and lines
// starting with '#' are skipped. All tuples must share one dimensionality
// and contain only finite values. Each field is trimmed of white space and
// parsed by strconv.ParseFloat in place in the scanner's buffer; the
// tuples are views, with clipped capacities, of one flat block sized
// exactly to the values read.
func ReadCSV(r io.Reader) (tuple.List, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		vals []float64
		n, d int   // tuples read, and the first one's width
		bad  error // the first tuple Validate would reject
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		start := len(vals)
		for k := 1; ; k++ {
			field, c := line, bytes.IndexByte(line, ',')
			if c >= 0 {
				field = line[:c]
			}
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
			if err != nil {
				return nil, fmt.Errorf("datagen: line %d field %d: %w", lineNo, k, err)
			}
			vals = append(vals, v)
			if c < 0 {
				break
			}
			line = line[c+1:]
		}
		if n == 0 {
			d = len(vals)
		}
		if bad == nil {
			bad = tuple.CheckAt(n, vals[start:], d)
		}
		if bad != nil {
			// Only a parse error can still come before bad: keep no values.
			vals = vals[:start]
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("datagen: reading CSV: %w", err)
	}
	if bad != nil || n == 0 {
		return nil, bad
	}
	flat := make([]float64, len(vals))
	copy(flat, vals)
	out := make(tuple.List, n)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out, nil
}
