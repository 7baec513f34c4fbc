package noc

import (
	"reflect"
	"testing"
	"unsafe"

	"parm/internal/geom"
)

// constRoute sends every head flit in one fixed direction and counts its
// route computations.
type constRoute struct {
	dir   geom.Dir
	calls *int
}

func (constRoute) Name() string { return "const" }

func (c constRoute) Route(RouteCtx) geom.Dir {
	*c.calls++
	return c.dir
}

// contendedRouter builds a 10x6 network in which the router at tile holds,
// at each listed input port, the given number of two-flit packets (head,
// tail) of flow = port index, every head routed to dir. The flows carry no
// demand, so nothing else enters the network.
func contendedRouter(t *testing.T, tile geom.TileID, dir geom.Dir, inputs []int, packets int) (*Network, *int) {
	t.Helper()
	calls := new(int)
	flows := make([]Flow, geom.NumPorts)
	for i := range flows {
		flows[i] = Flow{Src: 0, Dst: tile}
	}
	n, err := NewNetwork(Config{}, constRoute{dir: dir, calls: calls}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	r := &n.routers[tile]
	for _, in := range inputs {
		for k := 0; k < packets; k++ {
			slot := n.openPacket(in)
			n.push(int(tile), in, newFlit(slot, KindHead))
			n.push(int(tile), in, newFlit(slot, KindTail))
		}
		r.occ |= 1 << in
	}
	n.activeRouters.set(int(tile))
	return n, calls
}

// ejectionOrder steps n for the given cycles and returns the flow of every
// ejected flit in ejection order (the local output ejects at most one flit
// per cycle).
func ejectionOrder(n *Network, cycles int) []int {
	var order []int
	seen := make([]int, len(n.stats))
	for c := 0; c < cycles; c++ {
		n.Step()
		for f := range n.stats {
			for ; seen[f] < n.stats[f].DeliveredFlits; seen[f]++ {
				order = append(order, f)
			}
		}
	}
	return order
}

// TestArbitrationRoundRobin puts three inputs in contention for the local
// output and checks the grant order against a hand computation: a free
// output grants the first requesting input at or after its round-robin
// pointer, the pointer then moves past the winner, and the winner holds the
// channel from head to tail.
func TestArbitrationRoundRobin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inputs []int
		ptr    uint8
		want   []int
	}{
		// Pointer 0: inputs E(0), N(2), S(3) win in port order, then wrap.
		{"from-0", []int{portEast, portNorth, portSouth}, 0,
			[]int{0, 0, 2, 2, 3, 3, 0, 0, 2, 2, 3, 3}},
		// Pointer 3: S(3) first, then the pointer (4) wraps past the idle
		// local input to E(0), then W(1), then S again.
		{"from-3", []int{portEast, portWest, portSouth}, 3,
			[]int{3, 3, 0, 0, 1, 1, 3, 3, 0, 0, 1, 1}},
		// Pointer 2 with the local input contending: N(2), L(4), W(1).
		{"from-2-local", []int{portWest, portNorth, portLocal}, 2,
			[]int{2, 2, 4, 4, 1, 1, 2, 2, 4, 4, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tile = 11 // (1,1): every cardinal neighbour exists
			n, calls := contendedRouter(t, tile, geom.Local, tc.inputs, 2)
			n.routers[tile].rrPtr[portLocal] = tc.ptr
			got := ejectionOrder(n, 20)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ejection order %v, want %v", got, tc.want)
			}
			if *calls != 6 {
				t.Errorf("%d route computations, want one per packet (6)", *calls)
			}
		})
	}
}

// A head whose route named no port requests nothing: it is never granted,
// never moves, and is routed exactly once.
func TestArbitrationInvalidRouteNeverGranted(t *testing.T) {
	const tile = 11
	n, calls := contendedRouter(t, tile, geom.DirInvalid, []int{portEast}, 1)
	n.Run(10)
	r := &n.routers[tile]
	if r.inputs[portEast].len() != 2 || r.forwarded != 0 || n.stats[portEast].DeliveredFlits != 0 {
		t.Errorf("invalid-route worm moved: len %d, forwarded %d", r.inputs[portEast].len(), r.forwarded)
	}
	if r.owned != 0 {
		t.Errorf("outputs %05b granted (inputs %05b holding)", r.owned, r.held)
	}
	if r.rrPtr != [geom.NumPorts]uint8{} {
		t.Errorf("round-robin pointers moved: %v", r.rrPtr)
	}
	if *calls != 1 {
		t.Errorf("%d route computations, want 1", *calls)
	}
}

// A head routed off the mesh is granted the output, which then releases the
// channel without moving the flit, every cycle.
func TestArbitrationOffMeshReleases(t *testing.T) {
	const tile = 0 // (0,0): no west neighbour
	n, calls := contendedRouter(t, tile, geom.West, []int{portEast}, 1)
	r := &n.routers[tile]
	for c := 0; c < 3; c++ {
		n.Step()
		if r.rrPtr[portWest] != portEast+1 {
			t.Fatalf("cycle %d: west pointer %d, want %d (granted to east)", c, r.rrPtr[portWest], portEast+1)
		}
		if r.owned&(1<<portWest) != 0 {
			t.Fatalf("cycle %d: off-mesh channel still held (inputs %05b holding)", c, r.held)
		}
		if r.inputs[portEast].len() != 2 || r.forwarded != 0 {
			t.Fatalf("cycle %d: off-mesh worm moved", c)
		}
	}
	if *calls != 1 {
		t.Errorf("%d route computations, want 1", *calls)
	}
}

// TestFlitLayout pins the 4-byte flit handle: every buffer slot holds one
// and every link crossing moves one. It also pins the 64-byte router,
// whose rings keep only a front index and count while their slots live in
// the network's slot array, and the 16-byte packet-table entry (injection
// cycle, flow and destination), so a per-packet field is a deliberate
// change.
func TestFlitLayout(t *testing.T) {
	if size := unsafe.Sizeof(flit(0)); size != 4 {
		t.Errorf("flit is %d bytes, want 4", size)
	}
	if size := unsafe.Sizeof(router{}); size != 64 {
		t.Errorf("router is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(packet{}); size != 16 {
		t.Errorf("packet is %d bytes, want 16", size)
	}
}
