package nestedlock_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nestedlock"
)

func TestNestedLock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), nestedlock.Analyzer, "a", "clean")
}

// TestNestedLockCycleChoiceDeterministic: fork's five cycles through
// muA get their order edges from one call site, in the order of a map
// of may-acquired locks, so the report is the same on every run only
// because the successor lists are sorted. One run can meet the sorted
// order by chance; all 30 must.
func TestNestedLockCycleChoiceDeterministic(t *testing.T) {
	for i := 0; i < 30; i++ {
		analysistest.Run(t, analysistest.TestData(), nestedlock.Analyzer, "fork")
	}
}
