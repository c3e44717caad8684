package window

import "sync"

// Pool hands the windows and scratches of one job's tasks on to its later
// tasks, so they start with the capacity an earlier task grew. A window goes
// back only once its task has emitted it, and Put empties it: a pooled
// window pins nothing. Safe for concurrent use; the zero Pool is ready, and
// a nil *Pool allocates every window and keeps none.
type Pool struct {
	mu      sync.Mutex
	free    []*Window
	scratch []Scratch
}

// Scratch returns a scratch a finished task kept, with the buffers it grew,
// or a zero one.
func (pl *Pool) Scratch() (sc Scratch) {
	if pl != nil {
		pl.mu.Lock()
		if n := len(pl.scratch) - 1; n >= 0 {
			sc, pl.scratch[n], pl.scratch = pl.scratch[n], Scratch{}, pl.scratch[:n]
		}
		pl.mu.Unlock()
	}
	return sc
}

// Keep takes a task's scratch back for a later task; the task must be done
// with it and with every window Dominators built in it.
func (pl *Pool) Keep(sc Scratch) {
	if pl != nil {
		pl.mu.Lock()
		pl.scratch = append(pl.scratch, sc)
		pl.mu.Unlock()
	}
}

// Get returns an empty window for dim-dimensional tuples: the window last
// put back if it has that dimensionality, else a new one.
func (pl *Pool) Get(dim int) *Window {
	if pl != nil {
		pl.mu.Lock()
		defer pl.mu.Unlock()
		if n := len(pl.free) - 1; n >= 0 && pl.free[n].dim == dim {
			w := pl.free[n]
			pl.free[n], pl.free = nil, pl.free[:n]
			return w
		}
	}
	return New(dim)
}

// Put empties w and keeps it for a later Get; the caller must not touch w
// again. A Dominators window shares its backing with others and is refused
// with a panic.
func (pl *Pool) Put(w *Window) {
	if w.shared {
		panic("window: a Dominators window shares its backing and cannot be pooled")
	}
	if pl == nil {
		return
	}
	w.Reset()
	pl.mu.Lock()
	pl.free = append(pl.free, w)
	pl.mu.Unlock()
}
