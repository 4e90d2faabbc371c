package wallclock_test

import (
	"testing"

	"cafmpi/internal/analysis/analysistest"
	"cafmpi/internal/analysis/passes/wallclock"
)

func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "a")
}
