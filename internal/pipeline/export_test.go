package pipeline

// CorruptScoreboardForTest injects a register-scoreboard accounting bug for
// mutation-testing the invariant checker: it adds delta to cluster 0's
// in-use integer-register count with no owning instruction, emulating a
// free that never happened (delta > 0) or a double free (delta < 0).
func (p *Processor) CorruptScoreboardForTest(delta int) {
	p.clusters[0].intRegs += delta
}

// UpdateGolden exposes the package's -update flag to the external test
// package, whose goldens it rewrites too.
var UpdateGolden = update
