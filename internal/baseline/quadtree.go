package baseline

import (
	"fmt"
	"sort"

	"mrskyline/internal/tuple"
)

// This file implements the sky-quadtree of SKY-MR [Park, Min, Shim:
// Parallel computation of skyline and reverse skyline queries using
// MapReduce, PVLDB 6(14), 2013], the sampling-based alternative the paper
// contrasts its bitstring with ("the bitstring used in this work does not
// require sampling, and it is built in parallel by MapReduce").
//
// A sky-quadtree recursively splits the data space into 2^d equal children
// until a node holds at most a threshold of sample points. Leaves dominated
// by a sample point are marked pruned: no tuple falling there can be a
// skyline tuple. Remaining leaves become the data partitions of the SKY-MR
// jobs.

// quadNode is one node of the sky-quadtree. Regions are half-open boxes.
type quadNode struct {
	lo, hi   tuple.Tuple
	children []*quadNode // nil for leaves; else 2^d children
	// id is the leaf's index in depth-first order (leaves only).
	id int
	// pruned marks leaves dominated by a sample point.
	pruned bool
}

// quadTree is a built sky-quadtree with indexed leaves.
type quadTree struct {
	d      int
	root   *quadNode
	leaves []*quadNode
}

// buildQuadTree builds a sky-quadtree over the sample within [lo, hi).
// Nodes split while they hold more than leafCapacity sample points and
// maxDepth has not been reached. Leaves whose minimum corner is dominated
// by a sample point outside... strictly: whose entire region is dominated
// by some sample point (the point dominates the region's min corner) are
// marked pruned.
func buildQuadTree(sample tuple.List, lo, hi tuple.Tuple, leafCapacity, maxDepth int) (*quadTree, error) {
	d := len(lo)
	if d < 1 || len(hi) != d {
		return nil, fmt.Errorf("baseline: invalid quadtree bounds")
	}
	if leafCapacity < 1 {
		leafCapacity = 1
	}
	if maxDepth < 1 {
		maxDepth = 1
	}
	if d > 16 {
		return nil, fmt.Errorf("baseline: quadtree with 2^%d children per node is not applicable", d)
	}
	t := &quadTree{d: d}
	t.root = t.build(sample, lo.Clone(), hi.Clone(), leafCapacity, maxDepth)

	// Index leaves depth-first and apply sample-based pruning: a leaf is
	// pruned when some sample point dominates its min corner — then every
	// possible tuple in the leaf is dominated (cf. Lemma 1's reasoning).
	t.walk(t.root, func(n *quadNode) {
		if n.children != nil {
			return
		}
		n.id = len(t.leaves)
		t.leaves = append(t.leaves, n)
		for _, s := range sample {
			if tuple.Dominates(s, n.lo) {
				n.pruned = true
				break
			}
		}
	})
	return t, nil
}

func (t *quadTree) build(sample tuple.List, lo, hi tuple.Tuple, leafCapacity, depthLeft int) *quadNode {
	n := &quadNode{lo: lo, hi: hi}
	if len(sample) <= leafCapacity || depthLeft <= 1 {
		return n
	}
	mid := make(tuple.Tuple, t.d)
	for k := 0; k < t.d; k++ {
		mid[k] = (lo[k] + hi[k]) / 2
	}
	// Partition the sample into 2^d children by mid-plane comparisons.
	buckets := make([]tuple.List, 1<<uint(t.d))
	for _, s := range sample {
		buckets[t.childIndex(s, mid)] = append(buckets[t.childIndex(s, mid)], s)
	}
	n.children = make([]*quadNode, 1<<uint(t.d))
	for c := range n.children {
		clo := make(tuple.Tuple, t.d)
		chi := make(tuple.Tuple, t.d)
		for k := 0; k < t.d; k++ {
			if c&(1<<uint(k)) != 0 {
				clo[k], chi[k] = mid[k], hi[k]
			} else {
				clo[k], chi[k] = lo[k], mid[k]
			}
		}
		n.children[c] = t.build(buckets[c], clo, chi, leafCapacity, depthLeft-1)
	}
	return n
}

// childIndex returns the child octant of a point given the split midpoint.
func (t *quadTree) childIndex(p tuple.Tuple, mid tuple.Tuple) int {
	c := 0
	for k := 0; k < t.d; k++ {
		if p[k] >= mid[k] {
			c |= 1 << uint(k)
		}
	}
	return c
}

func (t *quadTree) walk(n *quadNode, fn func(*quadNode)) {
	fn(n)
	for _, c := range n.children {
		t.walk(c, fn)
	}
}

// locate returns the leaf containing p (clamping out-of-domain points into
// boundary leaves).
func (t *quadTree) locate(p tuple.Tuple) *quadNode {
	n := t.root
	for n.children != nil {
		mid := make(tuple.Tuple, t.d)
		for k := 0; k < t.d; k++ {
			mid[k] = (n.lo[k] + n.hi[k]) / 2
		}
		n = n.children[t.childIndex(p, mid)]
	}
	return n
}

// route is SKY-MR job 1's router: a row goes to its leaf, unless the
// sample pruned the leaf.
func (t *quadTree) route(p tuple.Tuple) (int, bool) {
	leaf := t.locate(p)
	return leaf.id, !leaf.pruned
}

// numLeaves returns the leaf count.
func (t *quadTree) numLeaves() int { return len(t.leaves) }

// mayDominate reports whether tuples in leaf a could dominate tuples in
// leaf b: a's best corner must dominate b's worst corner's upper bound —
// conservatively, a.lo must not be worse than b.hi on any dimension.
func (t *quadTree) mayDominate(a, b int) bool {
	if a == b {
		return false
	}
	la, lb := t.leaves[a], t.leaves[b]
	for k := 0; k < t.d; k++ {
		if la.lo[k] >= lb.hi[k] {
			return false
		}
	}
	return true
}

// dominatorLeaves returns, for leaf b, the sorted ids of unpruned leaves
// whose tuples could dominate tuples of b.
func (t *quadTree) dominatorLeaves(b int) []int {
	var out []int
	for a := range t.leaves {
		if !t.leaves[a].pruned && t.mayDominate(a, b) {
			out = append(out, a)
		}
	}
	sort.Ints(out)
	return out
}
