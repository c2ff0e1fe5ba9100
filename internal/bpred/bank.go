package bpred

import "fmt"

// BankPredictor predicts which word-interleaved cache bank a memory
// instruction will access, following the two-level branch-predictor-like
// organization of Yoaz et al. that the paper adopts (1024 first-level
// history entries, 4096 second-level entries).
//
// Predictions are always made in terms of the maximum bank count (16). When
// fewer clusters (and therefore fewer banks) are active, callers mask the
// prediction down to the low-order bits — the property §5 of the paper uses
// to avoid flushing the predictor on reconfiguration.
type BankPredictor struct {
	l1Size   int      //simlint:nostate table geometry, rebuilt by the constructor
	l2Size   int      //simlint:nostate table geometry, rebuilt by the constructor
	maxBanks int      //simlint:nostate table geometry, rebuilt by the constructor
	hist     []uint32 // per-PC folded history of recent banks
	banks    []uint8  // second level: predicted bank
	conf     []uint8  // 2-bit confidence alongside each prediction
	stats    Stats
}

// BankConfig sizes a BankPredictor.
type BankConfig struct {
	// Level1Size is the number of history registers (power of two).
	Level1Size int
	// Level2Size is the number of prediction entries (power of two).
	Level2Size int
	// MaxBanks is the full-machine bank count predictions are made in
	// (power of two, at most 256).
	MaxBanks int
}

// DefaultBankConfig returns the paper's §5 configuration: a two-level bank
// predictor with 1024 first-level and 4096 second-level entries, predicting
// one of 16 banks.
func DefaultBankConfig() BankConfig {
	return BankConfig{Level1Size: 1024, Level2Size: 4096, MaxBanks: 16}
}

// NewBank returns a BankPredictor for the given configuration.
func NewBank(cfg BankConfig) (*BankPredictor, error) {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"Level1Size", cfg.Level1Size},
		{"Level2Size", cfg.Level2Size},
		{"MaxBanks", cfg.MaxBanks},
	} {
		if v.val <= 0 || v.val&(v.val-1) != 0 {
			return nil, fmt.Errorf("bpred: bank %s must be a positive power of two, got %d", v.name, v.val)
		}
	}
	if cfg.MaxBanks > 256 {
		return nil, fmt.Errorf("bpred: MaxBanks %d exceeds 256", cfg.MaxBanks)
	}
	return &BankPredictor{
		l1Size:   cfg.Level1Size,
		l2Size:   cfg.Level2Size,
		maxBanks: cfg.MaxBanks,
		hist:     make([]uint32, cfg.Level1Size),
		banks:    make([]uint8, cfg.Level2Size),
		conf:     make([]uint8, cfg.Level2Size),
	}, nil
}

func (p *BankPredictor) index(pc uint64) (hi, l2 int) {
	hi = int((pc >> 2) & uint64(p.l1Size-1))
	h := p.hist[hi]
	l2 = int((uint64(h) ^ (pc >> 2)) & uint64(p.l2Size-1))
	return hi, l2
}

// Predict returns the predicted bank for the memory instruction at pc,
// masked to activeBanks (a power of two ≤ MaxBanks).
func (p *BankPredictor) Predict(pc uint64, activeBanks int) int {
	_, l2 := p.index(pc)
	return int(p.banks[l2]) & (activeBanks - 1)
}

// PredictConfident is Predict plus a confidence bit: steering uses the bank
// hint only when the entry's hysteresis counter is saturated, so memory
// operations with unpredictable banks (e.g. hash-table walks) fall back to
// operand-affinity steering instead of being flung at a wrong bank.
func (p *BankPredictor) PredictConfident(pc uint64, activeBanks int) (int, bool) {
	_, l2 := p.index(pc)
	return int(p.banks[l2]) & (activeBanks - 1), p.conf[l2] >= 3
}

// Update trains the predictor with the actual full-machine bank and counts
// whether the earlier masked prediction for activeBanks would have been
// correct. It returns true when the prediction was correct.
func (p *BankPredictor) Update(pc uint64, actualBank, activeBanks int) bool {
	hi, l2 := p.index(pc)
	pred := int(p.banks[l2]) & (activeBanks - 1)
	actual := actualBank & (activeBanks - 1)
	correct := pred == actual

	p.stats.Lookups++
	if !correct {
		p.stats.Mispredicts++
	}
	if int(p.banks[l2]) == actualBank {
		p.conf[l2] = bump(p.conf[l2], true)
	} else if p.conf[l2] > 0 {
		p.conf[l2] = bump(p.conf[l2], false)
	} else {
		p.banks[l2] = uint8(actualBank)
	}
	// Fold the observed bank into the per-PC history.
	p.hist[hi] = p.hist[hi]<<4 | uint32(actualBank&0xf)
	return correct
}

// Stats returns cumulative bank prediction statistics.
func (p *BankPredictor) Stats() Stats { return p.stats }
