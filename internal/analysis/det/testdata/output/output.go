// Package fixture exercises the det analyzer on sources whose order or
// value reaches a result record or an encoder: map walks feeding stores and
// helpers, sync.Map.Range, and %p formatting. Each fires at the source,
// whatever happens to the value afterwards.
package fixture

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// AppOutcome and Metrics stand in for the engine's result records.
type AppOutcome struct {
	Name string
	IPC  float64
}

type Metrics struct {
	Energy float64
	Trace  string
	Apps   []AppOutcome
}

// collect is the seeded metrics regression: an unsorted walk feeding the
// result record.
func collect(power map[string]float64) Metrics {
	var m Metrics
	for name, p := range power { // want `range over map power has nondeterministic order`
		m.Apps = append(m.Apps, AppOutcome{Name: name, IPC: p})
	}
	return m
}

// keys leaks map order through its return value. Sorting at every caller
// (dumpSorted) is not enough: the walk itself is the finding.
func keys(m map[string]int) []string {
	var ks []string
	for k := range m { // want `range over map m has nondeterministic order`
		ks = append(ks, k)
	}
	return ks
}

func dumpSorted(m map[string]int) ([]byte, error) {
	ks := keys(m)
	sort.Strings(ks)
	return json.Marshal(ks)
}

func add(m *Metrics, name string, p float64) {
	m.Apps = append(m.Apps, AppOutcome{Name: name, IPC: p})
}

func fill(power map[string]float64, m *Metrics) {
	for name, p := range power { // want `range over map power has nondeterministic order`
		add(m, name, p)
	}
}

func audited(m map[string]int) ([]byte, error) {
	var ks []string
	for k := range m { //parm:det the encoder's consumer treats ks as a set
		ks = append(ks, k)
	}
	return json.Marshal(ks)
}

func syncWalk(sm *sync.Map) ([]byte, error) {
	var ks []string
	sm.Range(func(k, v any) bool { // want `sync.Map.Range has nondeterministic order`
		ks = append(ks, k.(string))
		return true
	})
	return json.Marshal(ks)
}

const ptrFormat = "%s at %p"

func label(m *Metrics, p *AppOutcome) {
	m.Trace = fmt.Sprintf("%p", p)            // want `fmt.Sprintf formats a pointer address with %p`
	m.Trace += fmt.Sprintf(ptrFormat, "x", p) // want `fmt.Sprintf formats a pointer address with %p`
	m.Trace += fmt.Sprintf("%v", p.Name)
}
