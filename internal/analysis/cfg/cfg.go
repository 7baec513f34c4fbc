// Package cfg builds per-function control-flow graphs over go/ast. It is
// the flow-analysis layer under the parmvet suite's loop-sensitive
// analyzers (hotalloc, obsreg), built — like the rest of internal/analysis —
// on the standard library alone.
//
// The graph is statement-granular: control-flow statements (if, for, range,
// switch, select, branch, return) are decomposed into basic blocks, and
// every other statement, plus branch conditions, lands in a block's Nodes
// list in execution order. Function literals are NOT descended into: a
// FuncLit appears as part of the node that creates it, and callers analyze
// its body as a separate function with its own graph.
//
// Known simplifications, acceptable for lint-time analysis of this module:
//
//   - goto is treated as terminating its block without a recorded edge
//     (the module bans goto by style; a missed edge only loses precision);
//   - panic/runtime.Goexit are ordinary calls (their non-return is not
//     modeled);
//   - short-circuit && / || are not split into separate blocks, so both
//     operand expressions sit in the enclosing block.
package cfg

import "go/ast"

// Block is one basic block: a maximal sequence of nodes executed in order.
type Block struct {
	// Index is the block's position in Graph.Blocks (0 is the entry).
	Index int
	// Nodes holds the block's statements and condition expressions in
	// execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block; Blocks[0] is the entry.
	Blocks []*Block
}

// New builds the control-flow graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	return b.g
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (break-only)
}

type builder struct {
	g   *Graph
	cur *Block // nil after a terminating statement (return, break, ...)
	// frames is the stack of enclosing break/continue targets, innermost
	// last.
	frames []loopFrame
	// pendingLabel names the label attached to the next loop/switch/select.
	pendingLabel string
	// fallthroughTo is the next case clause's entry block while building a
	// switch body; fallthrough statements link to it.
	fallthroughTo *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, starting an (unreachable) block
// when control flow already terminated.
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil
	default:
		// Assignments, expression statements, sends, inc/dec, defer, go,
		// declarations: straight-line nodes.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	then := b.newBlock()
	link(head, then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock()
		link(head, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock()
	link(thenEnd, join)
	if hasElse {
		link(elseEnd, join)
	} else {
		link(head, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	link(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	exit := b.newBlock()
	if s.Cond != nil {
		link(head, exit)
	}
	contTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		link(post, head)
		contTo = post
	}
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: exit, continueTo: contTo})
	b.pendingLabel = ""
	body := b.newBlock()
	link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	link(b.cur, contTo)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	b.add(s.X)
	head := b.newBlock()
	// The RangeStmt node itself marks the per-iteration binding (and, for
	// channels, the blocking receive).
	head.Nodes = append(head.Nodes, s)
	link(b.cur, head)
	exit := b.newBlock()
	link(head, exit)
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: exit, continueTo: head})
	b.pendingLabel = ""
	body := b.newBlock()
	link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	link(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = exit
}

// switchBody builds the clause blocks of a switch or type switch whose tag
// nodes are already in the current block.
func (b *builder) switchBody(body *ast.BlockStmt) {
	head := b.cur
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: join})
	b.pendingLabel = ""

	// Pre-create clause entry blocks so fallthrough can target the next one.
	var clauses []*ast.CaseClause
	var entries []*Block
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		blk := b.newBlock()
		link(head, blk)
		entries = append(entries, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		blk := entries[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.cur = blk
		b.fallthroughTo = nil
		if i+1 < len(entries) {
			b.fallthroughTo = entries[i+1]
		}
		b.stmtList(cc.Body)
		link(b.cur, join)
	}
	b.fallthroughTo = nil
	if !hasDefault {
		link(head, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	// The SelectStmt node stays in the head block so analyzers can see the
	// potentially-blocking select point itself.
	b.add(s)
	head := b.cur
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: join})
	b.pendingLabel = ""
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		link(head, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		link(b.cur, join)
	}
	if !any {
		// select {} blocks forever; still link so the graph stays connected.
		link(head, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok.String() {
	case "break":
		if t := b.findFrame(s, false); t != nil {
			link(b.cur, t)
		}
	case "continue":
		if t := b.findFrame(s, true); t != nil {
			link(b.cur, t)
		}
	case "fallthrough":
		link(b.cur, b.fallthroughTo)
	case "goto":
		// Not modeled; treat as terminating (see package comment).
	}
	b.cur = nil
}

// findFrame resolves a break/continue target, honoring labels. needContinue
// selects frames that can be continued (loops).
func (b *builder) findFrame(s *ast.BranchStmt, needContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		fr := b.frames[i]
		if needContinue && fr.continueTo == nil {
			continue
		}
		if s.Label != nil && fr.label != s.Label.Name {
			continue
		}
		if needContinue {
			return fr.continueTo
		}
		return fr.breakTo
	}
	return nil
}

// LoopBlocks returns the set of blocks that lie on a control-flow cycle —
// i.e. the bodies (and heads) of loops. A block is in a loop iff it can
// reach itself through at least one edge.
func (g *Graph) LoopBlocks() map[*Block]bool {
	in := make(map[*Block]bool)
	for _, b := range g.Blocks {
		// Every block on a cycle reaches itself; the quadratic walk is fine
		// at function-body graph sizes.
		if reaches(b, b) {
			in[b] = true
		}
	}
	return in
}

// Inspect walks one block node in execution order, calling fn exactly as
// ast.Inspect does — except that a RangeStmt root is visited shallowly
// (the statement itself plus its Key/Value bindings), because its X
// expression and Body statements live in other blocks and would otherwise
// be visited twice. Use this instead of ast.Inspect when walking
// Block.Nodes.
func Inspect(root ast.Node, fn func(ast.Node) bool) {
	if rs, ok := root.(*ast.RangeStmt); ok {
		if !fn(rs) {
			return
		}
		if rs.Key != nil {
			ast.Inspect(rs.Key, fn)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, fn)
		}
		return
	}
	ast.Inspect(root, fn)
}

// reaches reports whether dst is reachable from src following at least one
// edge.
func reaches(src, dst *Block) bool {
	seen := make(map[*Block]bool)
	stack := append([]*Block(nil), src.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == dst {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}
