package det_test

import (
	"testing"

	"parm/internal/analysis/analysistest"
	"parm/internal/analysis/det"
)

// Each fixture package covers one family of nondeterminism sources.

func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata/maprange", det.Analyzer)
}

func TestOutputSources(t *testing.T) {
	analysistest.Run(t, "testdata/output", det.Analyzer)
}

func TestChannelOrder(t *testing.T) {
	analysistest.Run(t, "testdata/chans", det.Analyzer)
}

func TestClockAndRand(t *testing.T) {
	analysistest.Run(t, "testdata/clock", det.Analyzer)
}
