package datagen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mrskyline/internal/tuple"
)

// WriteCSV writes the tuples as comma-separated lines, one tuple per line,
// using the shortest float formatting that round-trips.
func WriteCSV(w io.Writer, l tuple.List) error {
	bw := bufio.NewWriter(w)
	for _, t := range l {
		if err := writeTupleLine(bw, t); err != nil {
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
	err := Stream(dist, card, d, seed, func(t tuple.Tuple) error {
		return writeTupleLine(bw, t)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeTupleLine writes one tuple as one CSV line.
func writeTupleLine(bw *bufio.Writer, t tuple.Tuple) error {
	for k, v := range t {
		if k > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

// ReadCSV parses tuples from comma-separated lines. Blank lines and lines
// starting with '#' are skipped. All tuples must share one dimensionality
// and contain only finite values.
func ReadCSV(r io.Reader) (tuple.List, error) {
	var out tuple.List
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		t := make(tuple.Tuple, len(fields))
		for k, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("datagen: line %d field %d: %w", lineNo, k+1, err)
			}
			t[k] = v
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("datagen: reading CSV: %w", err)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
