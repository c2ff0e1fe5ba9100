package snapstate_test

import (
	"testing"

	"clustersim/internal/analysis/analysistest"
	"clustersim/internal/analysis/passes/snapstate"
)

func TestSnapstate(t *testing.T) {
	analysistest.Run(t, "testdata", snapstate.Analyzer, "snapfix", "snapfollow")
}
