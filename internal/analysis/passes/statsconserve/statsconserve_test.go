package statsconserve_test

import (
	"testing"

	"clustersim/internal/analysis/analysistest"
	"clustersim/internal/analysis/passes/statsconserve"
)

func TestStatsConserve(t *testing.T) {
	analysistest.Run(t, "testdata", statsconserve.Analyzer, "stats", "nostats", "statsfollow")
}
