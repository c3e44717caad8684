package window

import "sort"

// Map holds a task's local skylines, one columnar window per partition id:
// the in-task state of every partitioned skyline job in this repository,
// mapper or reducer, grid or baseline.
type Map map[int]*Window

// Get returns partition p's window, creating an empty one of dim
// dimensions on first use.
func (m Map) Get(p, dim int) *Window {
	w := m[p]
	if w == nil {
		w = New(dim)
		m[p] = w
	}
	return w
}

// Sorted returns the partition ids in ascending order; every emission and
// comparison loop over a Map iterates in this order, so task output is
// byte-deterministic.
func (m Map) Sorted() []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
