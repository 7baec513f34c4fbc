package obs

import "sync"

// ring is the bounded buffer behind Timeline and DecisionLog. When full,
// push overwrites the oldest entry and counts the loss, so a long run keeps
// its most recent window instead of growing without bound. It is safe for
// concurrent use; the owning types supply the nil-receiver checks.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	start   int // index of the oldest entry
	n       int // number of live entries
	dropped uint64
}

// newRing returns a ring holding at most capacity entries (minimum 1).
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

// push appends v, overwriting the oldest entry when the buffer is full.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
	} else {
		r.buf[r.start] = v
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// drops returns how many entries were overwritten after the buffer filled.
func (r *ring[T]) drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// items returns the live entries oldest-first as a fresh slice.
func (r *ring[T]) items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}
