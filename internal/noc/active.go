package noc

// This file holds the data structures behind the event-driven stepping fast
// path (DESIGN.md §11): the active-tile bitsets that let Step visit only
// routers and source NICs with work, and the wakeup heap that replaces
// per-cycle demand accrual for dormant flows.

// tileSet is a fixed-capacity bitset over tile indices. Iteration is in
// ascending tile order — the order a full sweep visits routers in, which
// the switch-traversal credit chain depends on (an upstream router
// observes the pops its downstream neighbors performed earlier in the same
// ascending sweep).
type tileSet struct {
	words []uint64
}

// reset empties the set and sizes it for n tiles.
func (s *tileSet) reset(n int) { s.words = resized(s.words, (n+63)/64) }

func (s *tileSet) set(t int)   { s.words[t>>6] |= 1 << uint(t&63) }
func (s *tileSet) clear(t int) { s.words[t>>6] &^= 1 << uint(t&63) }

// empty reports whether no tile is set. The scan is a handful of words even
// on a 32x32 mesh, so idle cycles cost O(tiles/64), not O(tiles).
//
//parm:hot
func (s *tileSet) empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// flowWake is one pending accrual wakeup: cycle is flow's next demand
// crossing (a packet staging or stall), or the lookahead bound before it.
type flowWake struct {
	cycle int
	flow  int
}

// wakeHeap is a typed binary min-heap of flow wakeups ordered by (cycle,
// flow). The flow tie-break keeps the heap layout reproducible; processing
// order at equal cycles cannot affect results because demand accrual touches
// only per-flow state.
type wakeHeap []flowWake

func (h wakeHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].flow < h[j].flow
}

//parm:hot
func (h *wakeHeap) push(w flowWake) {
	// Amortized zero-alloc: the heap grows to one live entry per flow during
	// warmup and is stable afterwards.
	//parm:alloc
	*h = append(*h, w)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//parm:hot
func (h *wakeHeap) pop() flowWake {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s.less(right, left) {
			child = right
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}
