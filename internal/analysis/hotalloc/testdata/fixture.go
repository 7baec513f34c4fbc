// Fixture for the hotalloc analyzer: allocations inside loops of functions
// marked //parm:hot fire; the same constructs outside loops, in unmarked
// functions, or under //parm:alloc do not.
package fixture

import "fmt"

type point struct{ x, y float64 }

// sink keeps values alive so the fixture type-checks without vet noise.
var sink interface{}

//parm:hot
func hotLoopAllocs(n int) {
	buf := make([]float64, n) // outside any loop: allowed
	for i := 0; i < n; i++ {
		s := make([]float64, 4)      // want `make allocates in hot loop`
		p := new(point)              // want `new allocates in hot loop`
		buf = append(buf, 1)         // want `append in hot loop may grow`
		q := &point{x: 1}            // want `&composite literal allocates in hot loop`
		lit := []int{1, 2}           // want `slice literal allocates in hot loop`
		m := map[int]int{}           // want `map literal allocates in hot loop`
		f := func() int { return i } // want `closure allocated in hot loop`
		_ = s
		_ = p
		_ = q
		_ = lit
		_ = m
		_ = f
	}
	sink = buf
}

//parm:hot
func hotBoxing(vals []float64) {
	total := 0.0
	for _, v := range vals {
		fmt.Sprintf("%v", v)  // want `argument boxes float64 into an interface in hot loop`
		sink = interface{}(v) // want `conversion to interface boxes float64 in hot loop`
		total += v
	}
	sink = total
}

//parm:hot
func hotStringConv(words []string) {
	for _, w := range words {
		b := []byte(w) // want `string/byte-slice conversion copies in hot loop`
		_ = b
	}
}

//parm:hot
func hotSuppressed(n int) {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		// Capacity preallocated above; growth cannot occur.
		//parm:alloc
		out = append(out, i)
	}
	sink = out
}

//parm:hot
func hotCleanLoop(vals []float64) float64 {
	// An allocation-free loop: arithmetic, indexing, pointer passing.
	total := 0.0
	for i := range vals {
		total += vals[i]
	}
	return total
}

// coldLoop is not marked //parm:hot: nothing fires.
func coldLoop(n int) {
	for i := 0; i < n; i++ {
		s := make([]float64, 4)
		_ = s
		sink = fmt.Sprintf("%d", i)
	}
}

//parm:hot
func hotVariadicSpread(args []interface{}) {
	for range args {
		// Spreading an existing []interface{} does not box per element.
		fmt.Sprint(args...)
	}
}
