package noc

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"parm/internal/geom"
)

// resetWindow is one measurement window of TestResetMatchesNew.
type resetWindow struct {
	name  string
	cfg   Config
	alg   Algorithm
	flows []Flow
	env   *Env
}

// resetWindows lists every equivalence fixture under all three routing
// schemes, then PANR under uniform noise, then two windows on a 4x4 mesh and
// the default 10x6 mesh again.
func resetWindows() []resetWindow {
	var ws []resetWindow
	fixtures := equivFixtures()
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			ws = append(ws, resetWindow{name: name + "/" + alg.Name(), alg: alg, flows: fixtures[name], env: &Env{PSN: make([]float64, 60)}})
		}
	}
	// Two flows share each source, so the injection round robin matters.
	small := []Flow{{Src: 0, Dst: 15, Rate: 0.3}, {Src: 0, Dst: 10, Rate: 0.25}, {Src: 12, Dst: 3, Rate: 0.2}, {Src: 12, Dst: 6, Rate: 0.35}}
	return append(ws,
		resetWindow{name: "noisy/PANR", alg: PANR{}, flows: benchFlows(), env: noisyEnv(0.08)},
		resetWindow{name: "mesh4x4/PANR", cfg: Config{Width: 4, Height: 4}, alg: PANR{}, flows: small, env: &Env{PSN: make([]float64, 16)}},
		resetWindow{name: "mesh4x4/XY", cfg: Config{Width: 4, Height: 4}, alg: XY{}, flows: small, env: &Env{PSN: make([]float64, 16)}},
		resetWindow{name: "mesh10x6", alg: PANR{}, flows: sparseFlows(), env: &Env{PSN: make([]float64, 60)}},
	)
}

// resetState is everything a window leaves behind that a later cycle can
// read. Slices are copied into non-nil ones so that an empty slice compares
// equal to a nil one, and ring contents are read in ring order, because slots
// outside a ring are never read.
type resetState struct {
	Res                        *Result
	Rates                      []uint64
	Routers                    []router
	Rings                      [][]flit
	Packets                    []packet
	Free                       []int32
	Wake                       []flowWake
	Acc                        []uint64
	Staged, PartialLeft, RR    []int
	StagedFlows                []int
	PartialPkt                 []int32
	ActiveRouters, ActiveTiles []uint64
	SrcFlows, SrcOff           []int
	Cycle                      int
}

func cloned[T any](s []T) []T { return append([]T{}, s...) }

// runResetWindow runs w's warmup and measurement on n and returns what it
// left behind.
func runResetWindow(n *Network, w resetWindow) resetState {
	n.Run(1500)
	st := resetState{
		Res:           n.Measure(6000),
		Routers:       cloned(n.routers),
		Packets:       cloned(n.packets),
		Free:          cloned(n.free),
		Wake:          pendingWakes(n),
		Staged:        cloned(n.staged),
		PartialLeft:   cloned(n.partialLeft),
		RR:            cloned(n.injectRR),
		StagedFlows:   cloned(n.stagedFlows),
		PartialPkt:    cloned(n.partialPkt),
		ActiveRouters: cloned(n.activeRouters.words),
		ActiveTiles:   cloned(n.activeTiles.words),
		SrcFlows:      cloned(n.srcFlows),
		SrcOff:        cloned(n.srcOff),
		Cycle:         n.cycle,
	}
	for _, a := range n.acc {
		st.Acc = append(st.Acc, math.Float64bits(a))
	}
	for t := range n.routers {
		for p := range n.routers[t].inputs {
			q := n.routers[t].inputs[p]
			ring := []flit{}
			for k := 0; k < q.len(); k++ {
				ring = append(ring, n.slots[n.ringBase(t, p)+(int(q.head)+k)%bufferFlits])
			}
			st.Rings = append(st.Rings, ring)
		}
	}
	for t := range n.routers {
		st.Rates = append(st.Rates, math.Float64bits(n.IncomingRate(geom.TileID(t))))
	}
	return st
}

// TestResetMatchesNew resets one network through a sequence of windows —
// every routing scheme, quiet and noisy sensors, and two mesh shapes —
// and requires each window to leave exactly the state, Result and
// IncomingRate bits of a fresh NewNetwork. A packet table, wakeup or rate
// carried over from the previous window shows up as a difference.
func TestResetMatchesNew(t *testing.T) {
	reused := &Network{}
	for _, w := range resetWindows() {
		if err := reused.Reset(w.cfg, w.alg, w.flows, w.env); err != nil {
			t.Fatalf("%s: Reset: %v", w.name, err)
		}
		got := runResetWindow(reused, w)
		fresh, err := NewNetwork(w.cfg, w.alg, w.flows, w.env)
		if err != nil {
			t.Fatalf("%s: NewNetwork: %v", w.name, err)
		}
		want := runResetWindow(fresh, w)
		if !reflect.DeepEqual(got, want) {
			v, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < v.NumField(); i++ {
				if !reflect.DeepEqual(v.Field(i).Interface(), wv.Field(i).Interface()) {
					t.Errorf("%s: reset network's %s differs from a fresh network's", w.name, v.Type().Field(i).Name)
				}
			}
		}
	}
}

// A Reset that fails leaves the network as it was.
func TestResetErrorLeavesNetwork(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 59, Rate: 0.3}}
	n := mkNet(t, XY{}, flows, &Env{})
	n.Run(100)
	cycle, stats := n.cycle, cloned(n.stats)
	if err := n.Reset(Config{Width: -1}, XY{}, flows, &Env{}); err == nil {
		t.Fatal("Reset accepted a -1x6 mesh")
	}
	if err := n.Reset(Config{Width: 4}, XY{}, []Flow{{Src: 0, Dst: 59}}, &Env{}); err == nil {
		t.Fatal("Reset accepted a flow off a 4x6 mesh")
	}
	if n.cycle != cycle || n.mesh != geom.NewMesh(10, 6) || !reflect.DeepEqual(n.stats, stats) {
		t.Errorf("failed Reset changed the network: cycle %d, mesh %v", n.cycle, n.mesh)
	}
}
