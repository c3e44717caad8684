package baseline

import (
	"fmt"
	"sort"
	"time"

	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// subspaceOf computes the MR-BNL subspace code of a tuple: one bit per
// dimension, set when the value lies in the upper half of the domain.
// The code is "merely a code for the data partition, not for data
// contents" — MR-BNL has no analogue of the occupancy bitstring, so no
// pruning happens before the shuffle.
func subspaceOf(t tuple.Tuple, mid []float64) int {
	code := 0
	for k, v := range t {
		if v >= mid[k] {
			code |= 1 << uint(k)
		}
	}
	return code
}

// subspaceMayDominate reports whether tuples of subspace a can dominate
// tuples of subspace b: a's half must not be above b's on any dimension.
func subspaceMayDominate(a, b int) bool {
	// A dimension where a is in the upper half but b in the lower rules
	// dominance out: a&^b must be empty.
	return a != b && a&^b == 0
}

// MRBNL computes the skyline with the MR-BNL baseline: 2^d half-space
// subspaces, BNL local skylines on the mappers, a single reducer merging
// subspace skylines and removing cross-subspace false positives.
func MRBNL(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	start := time.Now()
	if err := data.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(data.Dim()); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, &Stats{Algorithm: "MR-BNL"}, nil
	}
	d := data.Dim()
	if d > 20 {
		return nil, nil, fmt.Errorf("baseline: %d dimensions give 2^%d subspaces; MR-BNL is not applicable", d, d)
	}

	mid := cfg.mid(d)
	sky, res, err := runSingleReducerJob(&cfg, "mr-bnl", data, halfspaceFuncs(d, mid), KindHalfspace, halfspaceSpecBytes(d, mid))
	if err != nil {
		return nil, nil, err
	}
	return sky, buildStats("MR-BNL", 1<<uint(d), sky, res, start), nil
}

// halfspaceFinish is MR-BNL's global merge: filter each subspace skyline
// by every subspace that may dominate it, then output the union. Windows
// stay columnar throughout, so every pass runs on the block kernel.
func halfspaceFinish(s map[int]*window.Window, cnt *skyline.Count) tuple.List {
	codes := make([]int, 0, len(s))
	for c := range s {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, b := range codes {
		w := s[b]
		for _, a := range codes {
			if s[a].Len() == 0 || !subspaceMayDominate(a, b) {
				continue
			}
			w.FilterBy(s[a], cnt)
			if w.Len() == 0 {
				break
			}
		}
	}
	var out tuple.List
	for _, c := range codes {
		out = append(out, s[c].Rows()...)
	}
	return out
}
