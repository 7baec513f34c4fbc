// Package fixture exercises the poolgo analyzer: every goroutine fires, as
// does WaitGroup.Add inside the spawned body.
package fixture

import "sync"

func work() {}

// bare spawns ad hoc: fires.
func bare() {
	go work() // want `go statement in a single-threaded simulation package`
}

// boundedPool is a well-formed bounded pool (Add before spawn), and a
// directive no longer sanctions it: fires.
func boundedPool(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//parm:pool
		go func() { // want `go statement in a single-threaded simulation package`
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// addInside fires twice: the spawn and the misplaced Add.
func addInside() {
	wg := &sync.WaitGroup{}
	go func() { // want `go statement in a single-threaded simulation package`
		wg.Add(1) // want `WaitGroup.Add inside the spawned goroutine races with Wait`
		defer wg.Done()
	}()
	wg.Wait()
}

// otherAdd is not a WaitGroup: no Add report (the spawn still fires).
type counter struct{}

func (counter) Add(int) {}

func otherAdd() {
	var c counter
	go func() { // want `go statement in a single-threaded simulation package`
		c.Add(1)
	}()
}
