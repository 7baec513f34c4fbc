package cfg

// Facts is a set of analyzer-defined dataflow facts (e.g. the locks held at
// a program point). The zero value is the empty set; nil is usable.
type Facts[F comparable] map[F]struct{}

// Has reports membership.
func (f Facts[F]) Has(k F) bool { _, ok := f[k]; return ok }

// Clone returns an independent copy.
func (f Facts[F]) Clone() Facts[F] {
	out := make(Facts[F], len(f))
	for k := range f {
		out[k] = struct{}{}
	}
	return out
}

// Add inserts k, allocating the set on first use, and returns the set.
func (f Facts[F]) Add(k F) Facts[F] {
	if f == nil {
		f = make(Facts[F])
	}
	f[k] = struct{}{}
	return f
}

// Delete removes k.
func (f Facts[F]) Delete(k F) { delete(f, k) }

func equal[F comparable](a, b Facts[F]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b.Has(k) {
			return false
		}
	}
	return true
}

func union[F comparable](dst, src Facts[F]) Facts[F] {
	for k := range src {
		dst = dst.Add(k)
	}
	return dst
}

// Forward runs a forward may-analysis to fixpoint: a block's input facts are
// the union of its predecessors' outputs (the entry block starts empty), and
// transfer maps a block's input set to its output set. It returns the
// fixpoint INPUT facts of every block.
//
// transfer must be monotone (it may add or remove facts, but its output must
// be a function of the block and the input set alone) and must not mutate
// the set it is given; return a modified Clone instead.
func Forward[F comparable](g *Graph, transfer func(*Block, Facts[F]) Facts[F]) map[*Block]Facts[F] {
	in := make(map[*Block]Facts[F], len(g.Blocks))
	out := make(map[*Block]Facts[F], len(g.Blocks))

	// Worklist seeded with every block in index order (entry first keeps
	// the common case converging in one pass over reducible graphs).
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make(map[*Block]bool, len(g.Blocks))
	for _, b := range work {
		queued[b] = true
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		var newIn Facts[F]
		for _, p := range b.Preds {
			newIn = union(newIn, out[p])
		}
		newOut := transfer(b, newIn)
		in[b] = newIn
		if equal(newOut, out[b]) {
			continue
		}
		out[b] = newOut
		for _, s := range b.Succs {
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}
