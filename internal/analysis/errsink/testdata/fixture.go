// Fixture for the errsink analyzer: dropped error results fire; checked
// errors, exempt writers, deferred calls, and //parm:errok sites do not.
package fixture

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
)

func failing() error            { return nil }
func failingPair() (int, error) { return 0, nil }
func valueOnly() int            { return 0 }

type closer struct{}

func (closer) Close() error { return nil }

func droppedCallStatement(c closer) {
	failing()   // want `error result of failing dropped`
	c.Close()   // want `error result of c.Close dropped`
	valueOnly() // no error result: no finding
}

func droppedBlankAssign() {
	_ = failing()         // want `error value assigned to _`
	n, _ := failingPair() // want `error from failingPair assigned to _`
	_ = n
	err := failing() // checked below: no finding
	if err != nil {
		panic(err)
	}
}

func exemptPrinters(buf *bytes.Buffer, sb *strings.Builder) {
	fmt.Println("status")            // stdout convention: no finding
	fmt.Printf("%d\n", 1)            // no finding
	fmt.Fprintf(os.Stderr, "warn\n") // no finding
	fmt.Fprintf(os.Stdout, "out\n")  // no finding
	fmt.Fprintf(buf, "cell,%d\n", 2) // in-memory buffer: no finding
	fmt.Fprintln(sb, "row")          // no finding
	buf.WriteString("x")             // Buffer writes never fail: no finding
	sb.WriteString("y")              // no finding
	h := fnv.New64a()
	h.Write([]byte("key")) // hash.Hash.Write never fails: no finding
	_ = h.Sum64()
}

func deferredCloseIsIdiomatic(c closer) {
	defer c.Close() // no finding
	_ = strconv.FormatInt(3, 10)
}

func suppressedDrop(c closer) {
	// Best-effort cleanup on the failure path; the original error wins.
	//parm:errok
	c.Close()
	_ = valueOnly()
}
