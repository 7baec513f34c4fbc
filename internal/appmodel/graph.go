package appmodel

import (
	"fmt"
	"math"
	"sort"

	"parm/internal/pdn"
)

// TaskID indexes a task (thread) within one application's APG.
type TaskID int

// Task is one vertex of an application graph: a thread with a switching
// activity class and a share of the application's computational work.
type Task struct {
	ID TaskID
	// Activity is the switching activity bin from offline profiling
	// (paper §3.5): High or Low.
	Activity pdn.Class
	// WorkCycles is the task's computational work in clock cycles.
	WorkCycles float64
}

// Edge is a directed APG edge: communication of Volume bytes from Src to
// Dst (paper §3.2: edge weights are communication volumes).
type Edge struct {
	Src, Dst TaskID
	// Volume is the total communication volume in bytes.
	Volume float64
}

// APG is an application graph: a directed acyclic graph of tasks, the unit
// the PARM mapping heuristic operates on.
type APG struct {
	Bench string
	Tasks []Task
	Edges []Edge
}

// NumTasks returns the number of tasks (the DoP the graph was built for).
func (g *APG) NumTasks() int { return len(g.Tasks) }

// EdgesBySortedVolume returns the edges in decreasing volume order, the
// order Algorithm 2 consumes them in. Ties break by (Src, Dst) for
// determinism. The receiver is not modified.
func (g *APG) EdgesBySortedVolume() []Edge {
	out := make([]Edge, len(g.Edges))
	copy(out, g.Edges)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Volume > out[j].Volume {
			return true
		}
		if out[i].Volume < out[j].Volume {
			return false
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Validate checks APG structural invariants: task IDs are 0..n-1 in order,
// edges reference valid tasks, no self-loops, and the graph is acyclic with
// all edges pointing from lower to higher stage (Src < Dst by
// construction).
func (g *APG) Validate() error {
	for i, t := range g.Tasks {
		if int(t.ID) != i {
			return fmt.Errorf("appmodel: task %d has ID %d", i, t.ID)
		}
		if t.Activity != pdn.High && t.Activity != pdn.Low {
			return fmt.Errorf("appmodel: task %d has activity %v", i, t.Activity)
		}
		if t.WorkCycles < 0 {
			return fmt.Errorf("appmodel: task %d has negative work", i)
		}
	}
	n := TaskID(len(g.Tasks))
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return fmt.Errorf("appmodel: edge %d->%d out of range", e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("appmodel: self-loop on task %d", e.Src)
		}
		if e.Src > e.Dst {
			return fmt.Errorf("appmodel: edge %d->%d violates topological order", e.Src, e.Dst)
		}
		if e.Volume < 0 {
			return fmt.Errorf("appmodel: edge %d->%d has negative volume", e.Src, e.Dst)
		}
	}
	return nil
}

// Graph generates the APG of benchmark b at the given DoP. The topology
// follows b.Shape, edge volumes are drawn deterministically around
// b.CommMBPerEdge, task work is the parallel share of b.WorkGCycles with a
// mild imbalance, and ceil(HighTaskFrac*dop) tasks are High activity.
// It panics if dop is not a positive multiple of 4 within [MinDoP, MaxDoP];
// DoP values come from DoPValues and anything else is a programming error.
func (b Benchmark) Graph(dop int) *APG {
	if dop < MinDoP || dop > MaxDoP || dop%4 != 0 {
		panic(fmt.Sprintf("appmodel: invalid DoP %d for %s", dop, b.Name))
	}
	rng := seededRand(b.Name, fmt.Sprintf("graph-%d", dop))

	g := &APG{Bench: b.Name, Tasks: make([]Task, dop)}

	// Work split: serial work is attributed to task 0; parallel work is
	// divided evenly with up to ±15% deterministic imbalance.
	total := b.WorkGCycles * 1e9
	serial := total * b.SerialFrac
	parallel := total - serial
	for i := range g.Tasks {
		imb := 1 + 0.15*(2*rng.Float64()-1)
		g.Tasks[i] = Task{ID: TaskID(i), WorkCycles: parallel / float64(dop) * imb}
	}
	g.Tasks[0].WorkCycles += serial

	// Activity classes: the HighTaskFrac highest-work tasks are High; real
	// profiles show switching activity tracks useful work per cycle.
	numHigh := int(math.Ceil(b.HighTaskFrac * float64(dop)))
	if numHigh > dop {
		numHigh = dop
	}
	order := make([]int, dop)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Tasks[order[i]].WorkCycles > g.Tasks[order[j]].WorkCycles
	})
	for i := range g.Tasks {
		g.Tasks[i].Activity = pdn.Low
	}
	for _, idx := range order[:numHigh] {
		g.Tasks[idx].Activity = pdn.High
	}

	// First pass records the topology with relative edge weights; volumes
	// are assigned afterwards so the application's total communication is
	// CommMBTotal regardless of DoP (wider parallelism partitions the same
	// data across more, lighter edges).
	type protoEdge struct {
		src, dst int
		weight   float64
	}
	var proto []protoEdge
	addWeighted := func(src, dst int, w float64) {
		if src > dst {
			src, dst = dst, src
		}
		if src == dst {
			return
		}
		proto = append(proto, protoEdge{src: src, dst: dst, weight: w})
	}
	addEdge := func(src, dst int) { addWeighted(src, dst, 1) }

	switch b.Shape {
	case ShapeForkJoin:
		// Task 0 forks to all, all join to last task; the join edges are
		// lighter (results are smaller than inputs).
		for i := 1; i < dop; i++ {
			addEdge(0, i)
		}
		for i := 1; i < dop-1; i++ {
			addWeighted(i, dop-1, 0.4)
		}
	case ShapePipeline:
		// ~4 stages; consecutive stages connect stage-to-stage with a
		// couple of cross links.
		stages := 4
		if dop < 8 {
			stages = 2
		}
		per := dop / stages
		for s := 0; s < stages-1; s++ {
			for i := 0; i < per; i++ {
				src := s*per + i
				addEdge(src, (s+1)*per+i)
				if i+1 < per {
					addEdge(src, (s+1)*per+i+1)
				}
			}
		}
		// Attach any remainder tasks to the last full stage.
		for i := stages * per; i < dop; i++ {
			addEdge((stages-1)*per, i)
		}
	case ShapeButterfly:
		// log2 stages of stride-doubling exchanges over the same task set.
		for stride := 1; stride < dop; stride *= 2 {
			for i := 0; i < dop; i++ {
				j := i ^ stride
				if j > i && j < dop {
					addEdge(i, j)
				}
			}
		}
	case ShapeTree:
		// Binary reduction tree: child i feeds parent (i-1)/2.
		for i := 1; i < dop; i++ {
			addEdge((i-1)/2, i)
		}
		// A few sibling exchanges for realism.
		for i := 1; i+1 < dop; i += 2 {
			addEdge(i, i+1)
		}
	case ShapeStencil:
		// Tasks on a near-square grid exchange with E and N neighbors.
		w := int(math.Sqrt(float64(dop)))
		if w < 2 {
			w = 2
		}
		for i := 0; i < dop; i++ {
			x, y := i%w, i/w
			if x+1 < w && i+1 < dop {
				addEdge(i, i+1)
			}
			if (y+1)*w+x < dop {
				addEdge(i, (y+1)*w+x)
			}
		}
	default:
		panic(fmt.Sprintf("appmodel: unknown shape %d", b.Shape))
	}

	// Second pass: split the application total across the edges, weighted
	// by topology role with ±50% deterministic jitter.
	totalW := 0.0
	jitter := make([]float64, len(proto))
	for i, pe := range proto {
		jitter[i] = pe.weight * (0.5 + rng.Float64())
		totalW += jitter[i]
	}
	if totalW > 0 {
		totalBytes := b.CommMBTotal * 1e6
		for i, pe := range proto {
			g.Edges = append(g.Edges, Edge{
				Src:    TaskID(pe.src),
				Dst:    TaskID(pe.dst),
				Volume: totalBytes * jitter[i] / totalW,
			})
		}
	}
	return g
}
