package core

import (
	"fmt"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

func TestDistCacheSmoke(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "vpr"} {
		line := fmt.Sprintf("%-6s", name)
		cfg := pipeline.DefaultConfig()
		cfg.Cache = pipeline.DecentralizedCache
		for _, run := range smokeRuns(cfg, NewExplore(ExploreConfig{}), NewDistantILP(DistantILPConfig{})) {
			p := pipeline.MustNew(run.cfg, workload.MustNew(name, 1), run.ctrl)
			r := mustRun(t, p, 700_000)
			line += fmt.Sprintf(" %s:%.2f(rc %d, fw %d)", r.Policy, r.IPC(), r.Reconfigs, r.Mem.FlushWritebacks)
		}
		fmt.Println(line)
	}
}
