package parm

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedPackages are the packages whose simulated outputs the goldens pin and
// whose floating-point code is kept free of compile-time fusion.
var fusedPackages = []string{"parm/internal/pdn", "parm/internal/noc"}

// TestNoFusedMultiplyAdd cross-compiles fusedPackages for arm64 and fails
// on any fused multiply-add in their assembly. Go may fuse x*y + z into one
// instruction, which skips the product's rounding, wherever the target has
// one; an explicit float64(...) conversion of the product forbids it (Go
// specification, "Floating-point operators"). amd64 never fuses at compile
// time, so the amd64 goldens cannot see a fused site that changes arm64
// bits: this test does. The cross-compile needs no network, and a cached
// rebuild replays the compiler's listing.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	args := []string{"build"}
	for _, p := range fusedPackages {
		args = append(args, "-gcflags="+p+"=-S")
	}
	args = append(args, fusedPackages...)
	cmd := exec.Command(goTool, args...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	listing := string(out)
	for _, p := range fusedPackages {
		if !strings.Contains(listing, "# "+p+"\n") {
			t.Fatalf("no assembly listing of %s in the build output", p)
		}
	}
	fused := regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	var sites []string
	for _, line := range strings.Split(listing, "\n") {
		if fused.MatchString(line) {
			sites = append(sites, strings.TrimSpace(line))
		}
	}
	if len(sites) > 0 {
		t.Errorf("%d fused multiply-adds on arm64; round each product with float64(...):\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}
