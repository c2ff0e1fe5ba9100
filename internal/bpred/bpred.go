// Package bpred implements the front-end predictors the simulated processor
// uses: the combining (bimodal + two-level) conditional branch predictor and
// branch target buffer from the paper's Table 1, a return-address stack, and
// the two-level bank predictor (after Yoaz et al.) that the decentralized
// cache model uses to steer memory operations at rename time.
package bpred

import "fmt"

// Config holds branch-predictor table sizes. The zero value is not valid;
// use DefaultConfig (the paper's Table 1 parameters).
type Config struct {
	// BimodalSize is the number of 2-bit counters in the bimodal table.
	BimodalSize int
	// Level1Size is the number of per-branch history registers.
	Level1Size int
	// HistoryBits is the length of each history register.
	HistoryBits int
	// Level2Size is the number of 2-bit counters indexed by history.
	Level2Size int
	// MetaSize is the number of 2-bit chooser counters.
	MetaSize int
	// BTBSets and BTBWays size the branch target buffer.
	BTBSets int
	BTBWays int
	// RASDepth is the return-address-stack depth.
	RASDepth int
}

// DefaultConfig returns the paper's Table 1 predictor configuration:
// combination of bimodal (2048) and 2-level (1024-entry level 1 with 10-bit
// history, 4096-entry level 2), a 2048-set 2-way BTB, plus an Alpha-style
// 32-entry return address stack.
func DefaultConfig() Config {
	return Config{
		BimodalSize: 2048,
		Level1Size:  1024,
		HistoryBits: 10,
		Level2Size:  4096,
		MetaSize:    4096,
		BTBSets:     2048,
		BTBWays:     2,
		RASDepth:    32,
	}
}

func (c Config) validate() error {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"BimodalSize", c.BimodalSize},
		{"Level1Size", c.Level1Size},
		{"HistoryBits", c.HistoryBits},
		{"Level2Size", c.Level2Size},
		{"MetaSize", c.MetaSize},
		{"BTBSets", c.BTBSets},
		{"BTBWays", c.BTBWays},
		{"RASDepth", c.RASDepth},
	} {
		if v.val <= 0 {
			return fmt.Errorf("bpred: %s must be positive, got %d", v.name, v.val)
		}
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"BimodalSize", c.BimodalSize},
		{"Level1Size", c.Level1Size},
		{"Level2Size", c.Level2Size},
		{"MetaSize", c.MetaSize},
		{"BTBSets", c.BTBSets},
	} {
		if v.val&(v.val-1) != 0 {
			return fmt.Errorf("bpred: %s must be a power of two, got %d", v.name, v.val)
		}
	}
	return nil
}

// counter is a 2-bit saturating counter helper.
func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// Predictor is the combining conditional-branch predictor with BTB and RAS.
// It is not safe for concurrent use.
type Predictor struct {
	cfg     Config //simlint:nostate configuration, rebuilt by the constructor
	bimodal []uint8
	hist    []uint16
	level2  []uint8
	meta    []uint8

	btbTags    []uint64
	btbTargets []uint64
	btbLRU     []uint8 // per-set round-robin pointer

	ras    []uint64
	rasTop int

	stats Stats
}

// Stats counts predictor outcomes.
type Stats struct {
	// Lookups is the number of control-transfer predictions made.
	Lookups uint64
	// Mispredicts counts direction or target mispredictions.
	Mispredicts uint64
}

// MispredictRate returns Mispredicts/Lookups, or 0 when no lookups occurred.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// New returns a Predictor for the given configuration.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:        cfg,
		bimodal:    make([]uint8, cfg.BimodalSize),
		hist:       make([]uint16, cfg.Level1Size),
		level2:     make([]uint8, cfg.Level2Size),
		meta:       make([]uint8, cfg.MetaSize),
		btbTags:    make([]uint64, cfg.BTBSets*cfg.BTBWays),
		btbTargets: make([]uint64, cfg.BTBSets*cfg.BTBWays),
		btbLRU:     make([]uint8, cfg.BTBSets),
		ras:        make([]uint64, cfg.RASDepth),
	}
	// Weakly-taken initial state converges faster for loop branches.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.level2 {
		p.level2[i] = 2
	}
	for i := range p.meta {
		p.meta[i] = 2 // weakly prefer the two-level component
	}
	return p, nil
}

// pcIndex folds a PC into a table index (instructions are 4-byte aligned).
func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

// PredictBranch predicts the direction and target of a conditional branch at
// pc and updates all tables with the actual outcome. It returns whether the
// front-end mispredicted (wrong direction, or taken with a BTB target miss).
//
// Trace-driven note: prediction and update happen together because the
// simulator only sees committed-path instructions; speculative-history
// repair is therefore unnecessary.
func (p *Predictor) PredictBranch(pc uint64, taken bool, target uint64) bool {
	p.stats.Lookups++

	bi := pcIndex(pc, p.cfg.BimodalSize)
	hi := pcIndex(pc, p.cfg.Level1Size)
	history := p.hist[hi] & uint16(1<<p.cfg.HistoryBits-1)
	l2 := int(uint64(history)^(pc>>2)) & (p.cfg.Level2Size - 1)
	mi := pcIndex(pc, p.cfg.MetaSize)

	bimodalPred := p.bimodal[bi] >= 2
	twoLevelPred := p.level2[l2] >= 2
	useTwoLevel := p.meta[mi] >= 2
	pred := bimodalPred
	if useTwoLevel {
		pred = twoLevelPred
	}

	mispredict := pred != taken
	if pred && taken {
		// Correct taken prediction still needs the target from the BTB.
		if t, ok := p.btbLookup(pc); !ok || t != target {
			mispredict = true
		}
	}

	// Update component tables with the actual outcome.
	p.bimodal[bi] = bump(p.bimodal[bi], taken)
	p.level2[l2] = bump(p.level2[l2], taken)
	if bimodalPred != twoLevelPred {
		p.meta[mi] = bump(p.meta[mi], twoLevelPred == taken)
	}
	p.hist[hi] = history<<1 | b2u(taken)
	if taken {
		p.btbInsert(pc, target)
	}
	if mispredict {
		p.stats.Mispredicts++
	}
	return mispredict
}

// PredictCall treats a call at pc as always taken, pushes the fall-through
// address on the RAS, and reports whether the target missed in the BTB.
func (p *Predictor) PredictCall(pc uint64, target uint64) bool {
	p.stats.Lookups++
	p.rasPush(pc + 4)
	t, ok := p.btbLookup(pc)
	p.btbInsert(pc, target)
	if !ok || t != target {
		p.stats.Mispredicts++
		return true
	}
	return false
}

// PredictReturn pops the RAS and reports whether the predicted return
// address mismatches the actual target.
func (p *Predictor) PredictReturn(target uint64) bool {
	p.stats.Lookups++
	pred, ok := p.rasPop()
	if !ok || pred != target {
		p.stats.Mispredicts++
		return true
	}
	return false
}

// Stats returns cumulative prediction statistics.
func (p *Predictor) Stats() Stats { return p.stats }

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := pcIndex(pc, p.cfg.BTBSets)
	base := set * p.cfg.BTBWays
	tag := pc >> 2
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[base+w] == tag {
			return p.btbTargets[base+w], true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := pcIndex(pc, p.cfg.BTBSets)
	base := set * p.cfg.BTBWays
	tag := pc >> 2
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[base+w] == tag {
			p.btbTargets[base+w] = target
			return
		}
	}
	victim := int(p.btbLRU[set]) % p.cfg.BTBWays
	p.btbLRU[set]++
	p.btbTags[base+victim] = tag
	p.btbTargets[base+victim] = target
}

func (p *Predictor) rasPush(addr uint64) {
	p.ras[p.rasTop] = addr
	p.rasTop = (p.rasTop + 1) % len(p.ras)
}

func (p *Predictor) rasPop() (uint64, bool) {
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	addr := p.ras[p.rasTop]
	return addr, addr != 0
}

func b2u(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
