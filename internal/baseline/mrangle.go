package baseline

import (
	"math"
	"sort"
	"time"

	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// anglePartitioner maps tuples to angular partitions following the
// angle-based space partitioning of [Vlachou et al., SIGMOD 2008] that
// MR-Angle adapts: a point is converted to hyperspherical coordinates
// (dropping the radius) and the (d−1)-dimensional angle space [0, π/2]^{d−1}
// is cut into a uniform grid. Every angular partition is a cone from the
// origin, so skyline tuples — which cluster near the origin — spread evenly
// across partitions.
type anglePartitioner struct {
	d      int
	k      int       // cells per angle dimension
	width  float64   // cell width in radians
	origin []float64 // domain origin; angles are measured from it
}

// newAnglePartitioner builds a partitioner with roughly target partitions:
// k = ceil(target^(1/(d−1))) cells per angular dimension.
func newAnglePartitioner(d, target int, origin []float64) *anglePartitioner {
	if target < 1 {
		target = 1
	}
	k := 1
	if d > 1 {
		k = int(math.Ceil(math.Pow(float64(target), 1/float64(d-1))))
		if k < 1 {
			k = 1
		}
	}
	if origin == nil {
		origin = make([]float64, d)
	}
	return &anglePartitioner{d: d, k: k, width: (math.Pi / 2) / float64(k), origin: origin}
}

// partitions returns the total angular partition count k^(d−1).
func (a *anglePartitioner) partitions() int {
	p := 1
	for i := 1; i < a.d; i++ {
		p *= a.k
	}
	return p
}

// locate returns the angular partition id of t.
func (a *anglePartitioner) locate(t tuple.Tuple) int {
	id := 0
	// v is the tuple relative to the domain origin (clamped to the first
	// quadrant); tail2 accumulates v_{i+1}² + … + v_d² from the back.
	v := make([]float64, a.d)
	for i := range v {
		v[i] = t[i] - a.origin[i]
		if v[i] < 0 {
			v[i] = 0
		}
	}
	tail2 := 0.0
	for i := a.d - 1; i >= 1; i-- {
		tail2 += v[i] * v[i]
	}
	for i := 0; i < a.d-1; i++ {
		var phi float64
		if v[i] == 0 {
			phi = math.Pi / 2
		} else {
			phi = math.Atan(math.Sqrt(tail2) / v[i])
			if phi < 0 {
				phi = 0
			}
		}
		cell := int(phi / a.width)
		if cell >= a.k {
			cell = a.k - 1
		}
		id = id*a.k + cell
		tail2 -= v[i+1] * v[i+1]
		if tail2 < 0 {
			tail2 = 0
		}
	}
	return id
}

// MRAngle computes the skyline with the MR-Angle baseline: angular
// partitioning, BNL local skylines on the mappers, and a single reducer
// merging all local skylines with BNL. Angular partitions cannot dominate
// one another, so the reducer performs a full merge.
func MRAngle(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	start := time.Now()
	if err := data.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(data.Dim()); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, &Stats{Algorithm: "MR-Angle"}, nil
	}
	d := data.Dim()
	target := cfg.AngularPartitions
	if target < 1 {
		target = cfg.mappers()
	}
	ap := newAnglePartitioner(d, target, cfg.origin(d))

	sky, res, err := runSingleReducerJob(&cfg, "mr-angle", data, singleReducerFuncs(d, ap.locate,
		func(s map[int]*window.Window, cnt *skyline.Count) tuple.List {
			ids := make([]int, 0, len(s))
			for id := range s {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			merge := window.New(d)
			for _, id := range ids {
				for _, t := range s[id].Rows() {
					merge.Insert(t, cnt)
				}
			}
			return merge.Rows()
		}), "", nil) // no kind: the angle partitioner is not spec-serialized
	if err != nil {
		return nil, nil, err
	}
	return sky, buildStats("MR-Angle", ap.partitions(), sky, res, start), nil
}
