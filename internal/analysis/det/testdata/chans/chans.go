// Package fixture exercises the det analyzer on arrival order: used
// channel receives in loops, range over a channel, and multi-case select.
// Discarded receives and a //parm:det-annotated receive stay silent.
package fixture

import (
	"encoding/json"
	"fmt"
)

// Metrics stands in for the engine's result record.
type Metrics struct {
	Trace string
}

// gather accumulates receives in arrival order.
func gather(ch chan string, m *Metrics) {
	for i := 0; i < 3; i++ {
		m.Trace += <-ch // want `channel receive in a loop binds values in arrival order`
	}
}

type result struct {
	idx int
	val float64
	err error
}

// poolKeyed stores each result under its own index. The store is
// order-free, but the check is per statement: the receive still fires.
func poolKeyed(ch chan result) []float64 {
	vals := make([]float64, 4)
	for i := 0; i < 4; i++ {
		r := <-ch // want `channel receive in a loop binds values in arrival order`
		vals[r.idx] = r.val
	}
	return vals
}

// poolAudited is poolKeyed with the audit that production code carries.
func poolAudited(ch chan result) []float64 {
	vals := make([]float64, 4)
	for i := 0; i < 4; i++ {
		// Content-keyed: each result lands at its own index.
		//parm:det
		r := <-ch
		vals[r.idx] = r.val
	}
	return vals
}

// runCellsFirstArrival reconstructs the worker-pool collector as it was
// before it was fixed: it kept whichever cell error arrived first, so the
// reported failure depended on scheduling.
func runCellsFirstArrival(results chan result, n int) ([]float64, error) {
	out := make([]float64, n)
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-results // want `channel receive in a loop binds values in arrival order`
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %d: %w", r.idx, r.err)
		}
		out[r.idx] = r.val
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// drainJobs binds values from a channel range in arrival order.
func drainJobs(jobs chan int, out []int) {
	for idx := range jobs { // want `range over channel jobs binds values in arrival order`
		out[idx]++
	}
}

// waitAll discards every received value, as a completion barrier does.
func waitAll(done chan int, sem chan struct{}, n int) {
	for i := 0; i < n; i++ {
		go func() {
			sem <- struct{}{}
			<-sem
			done <- i
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for range done {
	}
}

// once receives outside any loop: there is no order to depend on.
func once(ch chan string) string {
	return <-ch
}

// race returns whichever channel wins the select.
func race(a, b chan string) string {
	var got string
	select { // want `select with several communication clauses`
	case got = <-a:
	case got = <-b:
	}
	return got
}

// poll has one communication clause and a default: the choice is fixed by
// readiness alone.
func poll(a chan string) string {
	select {
	case s := <-a:
		return s
	default:
		return ""
	}
}

func dumpRace(a, b chan string) ([]byte, error) {
	return json.Marshal(race(a, b))
}
