package noc

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
	head []int32 // first flow of each bucket, or -1 while it is empty
	next []int32 // per flow, the next flow in its bucket, or -1
}

// reset empties the calendar and sizes it for the given number of flows.
// Links are written before they are read.
func (c *wakeCalendar) reset(flows int) {
	if cap(c.head) < wakeBuckets {
		c.head = make([]int32, wakeBuckets)
	}
	for b := range c.head {
		c.head[b] = -1
	}
	if cap(c.next) < flows {
		c.next = make([]int32, flows)
	}
	c.next = c.next[:flows]
}

// push books flow's wakeup at cycle.
func (c *wakeCalendar) push(cycle, flow int) {
	b := cycle & (wakeBuckets - 1)
	c.next[flow] = c.head[b]
	c.head[b] = int32(flow)
}

// take empties the bucket of cycle and returns its first flow, or -1 when
// no flow is due; next links the rest.
func (c *wakeCalendar) take(cycle int) int32 {
	b := cycle & (wakeBuckets - 1)
	f := c.head[b]
	c.head[b] = -1
	return f
}
