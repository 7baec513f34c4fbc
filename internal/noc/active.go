package noc

import "math/bits"

// This file holds the data structures behind the event-driven stepping fast
// path (DESIGN.md §11): the active-tile bitsets that let Step visit only
// routers and source NICs with work, and the wakeup calendar that replaces
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
func (s *tileSet) empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// wakeBuckets is the wake calendar's length in cycles, a power of two. The
// pending wakeups lie at most wakeLookahead = wakeBuckets-1 cycles past the
// current one, so no two pending cycles share a bucket.
const wakeBuckets = 1 << 10

// wakeCalendar holds the pending accrual wakeups: bucket cycle%wakeBuckets
// lists the flows due at that cycle, linked through next. Each flow has at
// most one pending wakeup, so next needs one entry per flow. The order
// within a bucket is the reverse of booking order; it cannot affect results
// because demand accrual touches only per-flow state and order-free tile
// counts (TestFlowOrderPermutes). Reset sizes the storage, so route views,
// which are never stepped, carry none.
type wakeCalendar struct {
	head []int32  // first flow of each bucket, valid while its bit is set
	next []int32  // per flow, the next flow in its bucket, or -1
	bits []uint64 // bit b set while bucket b holds a flow
}

// reset empties the calendar and sizes it for the given number of flows.
// Only the bitmap is cleared: heads and links are written before they are
// read.
func (c *wakeCalendar) reset(flows int) {
	if cap(c.head) < wakeBuckets {
		c.head = make([]int32, wakeBuckets)
	}
	if cap(c.next) < flows {
		c.next = make([]int32, flows)
	}
	c.next = c.next[:flows]
	c.bits = resized(c.bits, wakeBuckets/64)
}

// push books flow's wakeup at cycle.
func (c *wakeCalendar) push(cycle, flow int) {
	b := cycle & (wakeBuckets - 1)
	w, m := b>>6, uint64(1)<<uint(b&63)
	c.next[flow] = -1
	if c.bits[w]&m != 0 {
		c.next[flow] = c.head[b]
	}
	c.bits[w] |= m
	c.head[b] = int32(flow)
}

// take empties the bucket of cycle and returns its first flow, or -1 when
// no flow is due; next links the rest.
func (c *wakeCalendar) take(cycle int) int32 {
	b := cycle & (wakeBuckets - 1)
	w, m := b>>6, uint64(1)<<uint(b&63)
	if c.bits[w]&m == 0 {
		return -1
	}
	c.bits[w] &^= m
	return c.head[b]
}

// nextDue returns the first cycle at or after from with a wakeup due, and
// false when the calendar is empty. Every pending wakeup lies less than
// wakeBuckets cycles past from, so the first set bit in bucket order from
// from's bucket, wrapping once, is the earliest.
func (c *wakeCalendar) nextDue(from int) (int, bool) {
	b := from & (wakeBuckets - 1)
	wi := b >> 6
	if w := c.bits[wi] >> uint(b&63); w != 0 {
		return from + bits.TrailingZeros64(w), true
	}
	for k := 1; k <= len(c.bits); k++ {
		j := (wi + k) & (len(c.bits) - 1)
		if w := c.bits[j]; w != 0 {
			return from + (j<<6+bits.TrailingZeros64(w)-b)&(wakeBuckets-1), true
		}
	}
	return 0, false
}
