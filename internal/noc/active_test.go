package noc

import (
	"fmt"
	"testing"
	"time"
)

// TestWakeCalendarDrains steps the sparse fixture for four laps of the wake
// calendar under a deadline. A take that leaves its bucket's head in place
// makes later laps re-walk a stale list, which can link a flow to itself, and
// Step then never returns. The spinning goroutine cannot be stopped, so at
// the deadline the test panics: that ends the test binary in seconds instead
// of leaving the next test that steps a network to hang until go test's
// -timeout. It is the package's first test in file order, so a plain
// `go test` reaches it before any other test steps a network.
func TestWakeCalendarDrains(t *testing.T) {
	const (
		cycles   = 4 * wakeBuckets
		deadline = 10 * time.Second
	)
	n := mkNet(t, PANR{}, sparseFlows(), &Env{PSN: make([]float64, 60)})
	done := make(chan struct{})
	go func() {
		n.Run(cycles)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		panic(fmt.Sprintf("noc: %d cycles of the sparse fixture did not finish in %v: a wake calendar bucket never empties", cycles, deadline))
	}
	if len(pendingWakes(n)) == 0 {
		t.Error("no wakeup pending after the run: the fixture stopped booking")
	}
}
