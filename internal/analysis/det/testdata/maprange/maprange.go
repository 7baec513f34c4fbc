// Package fixture exercises the det analyzer on map iteration: walks fire
// unless they are the collect-then-sort idiom or carry a //parm:det with a
// reason.
package fixture

import "sort"

func sumValues(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over map m has nondeterministic order`
		total += v
	}
	return total
}

// sortedKeys is the key-only collect-then-sort idiom: no report.
func sortedKeys(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

type stat struct {
	name  string
	count int
}

// sortedStats is the widened idiom: any single append to the slice the
// next statement sorts. No report.
func sortedStats(m map[string]int) []stat {
	out := make([]stat, 0, len(m))
	for name, n := range m {
		out = append(out, stat{name: name, count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func collectNoSort(m map[int]bool) []int {
	var keys []int
	for k := range m { // want `range over map m has nondeterministic order`
		keys = append(keys, k)
	}
	return keys
}

func sortOtherSlice(m map[int]bool, other []int) []int {
	var keys []int
	for k := range m { // want `range over map m has nondeterministic order`
		keys = append(keys, k)
	}
	sort.Ints(other)
	return keys
}

func annotatedMax(m map[int]int) int {
	best := 0
	// Max commutes, so the walk order cannot change the result.
	//parm:det
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func trailingDirective(m map[int]int) int {
	n := 0
	for range m { //parm:det counting commutes
		n++
	}
	return n
}

// bareDirective gives no reason, so the directive suppresses nothing.
func bareDirective(m map[int]int) int {
	n := 0
	//parm:det
	for range m { // want `range over map m has nondeterministic order`
		n++
	}
	return n
}

func overSlice(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

type registry map[string]int

func overNamed(r registry) int {
	s := 0
	for _, v := range r { // want `range over map r has nondeterministic order`
		s += v
	}
	return s
}

func inSwitch(m map[int]int, mode int) int {
	s := 0
	switch mode {
	case 1:
		for _, v := range m { // want `range over map m has nondeterministic order`
			s += v
		}
	}
	return s
}
