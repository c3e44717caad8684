package baseline

import (
	"math"
	"time"

	"mrskyline/internal/mapreduce"
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

// locate returns the angular partition id of t. An id may be negative: an
// angle is NaN where the values reach ±MaxFloat64.
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

// finish is MR-Angle's global merge: angular partitions cannot dominate
// one another, so every partition's local skyline, in partition order, is
// inserted into one window.
func (a *anglePartitioner) finish(s window.Map, cnt *skyline.Count) tuple.List {
	merge := window.New(a.d)
	for _, id := range s.Sorted() {
		for _, t := range s[id].Rows() {
			merge.Insert(t, cnt)
		}
	}
	return merge.Rows()
}

// MRAngle computes the skyline of data with the MR-Angle baseline: angular
// partitioning, BNL local skylines on the mappers, and a single reducer
// merging all local skylines with BNL. data is checked first.
func MRAngle(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return overList(cfg, data, "MR-Angle", MRAngleRows)
}

// MRAngleRows is MRAngle over non-empty rows already checked to be of one
// width and finite, as core.EncodeRows returns them: the job reads them in
// place and checks none of them again.
func MRAngleRows(cfg Config, in mapreduce.TupleRows) (tuple.List, *Stats, error) {
	start := time.Now()
	d := len(in[0])
	if err := cfg.validate(d); err != nil {
		return nil, nil, err
	}
	origin, _ := cfg.bounds(d)
	ap := newAnglePartitioner(d, cfg.mappers(), origin)
	spec := specBytes(angleSpec{D: d, Target: cfg.mappers(), Origin: origin})
	sky, res, err := runSingleReducerJob(&cfg, "mr-angle", in, angleFuncs(ap), KindAngle, spec)
	if err != nil {
		return nil, nil, err
	}
	return sky, buildStats("MR-Angle", ap.partitions(), sky, res, start), nil
}
