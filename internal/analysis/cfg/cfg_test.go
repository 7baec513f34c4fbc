package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildGraph parses a function body and builds its CFG.
func buildGraph(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return New(fd.Body)
}

// nodeCount sums the nodes of every block.
func nodeCount(g *Graph) int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Nodes)
	}
	return n
}

func TestStraightLineIsOneBlock(t *testing.T) {
	g := buildGraph(t, "x := 1\nx++\n_ = x")
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Blocks[0].Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Blocks[0].Nodes))
	}
	if loops := g.LoopBlocks(); len(loops) != 0 {
		t.Fatalf("straight-line code reported %d loop blocks", len(loops))
	}
}

func TestIfElseJoins(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	// entry(+cond), then, else, join.
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry successors = %d, want 2 (then/else)", len(entry.Succs))
	}
	join := g.Blocks[len(g.Blocks)-1]
	if len(join.Preds) != 2 {
		t.Fatalf("join predecessors = %d, want 2", len(join.Preds))
	}
	if len(g.LoopBlocks()) != 0 {
		t.Fatal("if/else reported loop blocks")
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	join := g.Blocks[len(g.Blocks)-1]
	if len(join.Preds) != 2 { // head (cond false) and then-end
		t.Fatalf("join predecessors = %d, want 2", len(join.Preds))
	}
}

func TestForLoopBlocksDetected(t *testing.T) {
	g := buildGraph(t, "s := 0\nfor i := 0; i < 10; i++ {\ns += i\n}\n_ = s")
	loops := g.LoopBlocks()
	if len(loops) == 0 {
		t.Fatal("for loop produced no loop blocks")
	}
	// The loop body (containing s += i) must be a loop block; the trailing
	// statement (_ = s) must not.
	var bodyBlk, tailBlk *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok.String() == "+=" {
					bodyBlk = b
				}
				if len(n.Lhs) == 1 {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						tailBlk = b
					}
				}
			}
		}
	}
	if bodyBlk == nil || tailBlk == nil {
		t.Fatal("could not locate body/tail blocks")
	}
	if !loops[bodyBlk] {
		t.Error("loop body not marked as a loop block")
	}
	if loops[tailBlk] {
		t.Error("post-loop block wrongly marked as a loop block")
	}
}

func TestRangeLoopBlocksDetected(t *testing.T) {
	g := buildGraph(t, "s := 0\nfor _, v := range []int{1, 2} {\ns += v\n}\n_ = s")
	if len(g.LoopBlocks()) == 0 {
		t.Fatal("range loop produced no loop blocks")
	}
}

func TestBreakLeavesLoop(t *testing.T) {
	g := buildGraph(t, "for {\nbreak\n}\nx := 1\n_ = x")
	// The statements after the loop must be reachable from the entry.
	var tail *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok.String() == ":=" {
				tail = b
			}
		}
	}
	if tail == nil {
		t.Fatal("tail block not found")
	}
	if !reaches(g.Blocks[0], tail) {
		t.Error("code after `for { break }` unreachable in graph")
	}
}

func TestLabeledBreakTargetsOuterLoop(t *testing.T) {
	g := buildGraph(t, "outer:\nfor {\nfor {\nbreak outer\n}\n}\nx := 1\n_ = x")
	var tail *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok.String() == ":=" {
				tail = b
			}
		}
	}
	if tail == nil {
		t.Fatal("tail block not found")
	}
	if !reaches(g.Blocks[0], tail) {
		t.Error("labeled break did not reach past the outer loop")
	}
}

func TestSwitchWithoutDefaultFallsThrough(t *testing.T) {
	g := buildGraph(t, "x := 1\nswitch x {\ncase 1:\nx = 2\ncase 2:\nx = 3\n}\n_ = x")
	var tail *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					tail = b
				}
			}
		}
	}
	if tail == nil {
		t.Fatal("tail block not found")
	}
	// head -> join edge must exist (no default), so tail has >= 3 preds:
	// two case ends plus the head.
	if len(tail.Preds) != 3 {
		t.Fatalf("join predecessors = %d, want 3", len(tail.Preds))
	}
}

func TestReturnTerminatesBlock(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\nreturn\n}\n_ = x")
	total := nodeCount(g)
	if total != 4 { // x := 1, cond, return, _ = x
		t.Fatalf("node count = %d, want 4", total)
	}
	// The then-block (return) must have no successors.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok && len(b.Succs) != 0 {
				t.Errorf("return block has %d successors, want 0", len(b.Succs))
			}
		}
	}
}
