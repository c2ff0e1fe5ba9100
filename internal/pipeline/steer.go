package pipeline

import "clustersim/internal/isa"

// steer picks the cluster for an instruction about to dispatch, or -1 when
// no active cluster can accept it this cycle. It implements §2.1's
// heuristics: the default steers an instruction to the cluster that produces
// most of its operands, prefers the predicted-critical operand's cluster on
// a tie, gives memory operations an affinity for the cluster that services
// their cache bank, and overrides everything when issue-queue occupancy is
// visibly imbalanced. Mod_N and First_Fit are the comparison heuristics
// from Baniasadi and Moshovos that the default approximates at threshold
// extremes.
func (p *Processor) steer(in *isa.Instruction, seq uint64) int {
	switch p.cfg.Steering {
	case SteerModN:
		return p.steerModN(in)
	case SteerFirstFit:
		return p.steerFirstFit(in)
	default:
		return p.steerOperandMajority(in, seq)
	}
}

// canAccept reports whether cluster c has the resources the instruction
// needs: an issue-queue slot, a destination register if one is written, and
// an LSQ slot for memory operations. Stores under the decentralized model
// additionally need a dummy slot in every other active LSQ; that is checked
// separately in dispatchStage because it is independent of the steering
// choice.
func (p *Processor) canAccept(c int, in *isa.Instruction) bool {
	cs := &p.clusters[c]
	if cs.iqCount(in.Class) >= p.cfg.IQPerCluster {
		return false
	}
	if in.HasDest {
		if in.Class.IsFP() {
			if cs.fpRegs >= p.cfg.RegsPerCluster {
				return false
			}
		} else if cs.intRegs >= p.cfg.RegsPerCluster {
			return false
		}
	}
	if in.Class.IsMem() {
		if p.cfg.Cache == CentralizedCache {
			if p.lsqTotal >= p.cfg.LSQPerCluster*p.cfg.Clusters {
				return false
			}
		} else if cs.lsq >= p.cfg.LSQPerCluster {
			return false
		}
	}
	return true
}

// producerCluster returns the cluster of the in-flight producer dist back
// from seq, or -1 if the producer has retired (its value is architected).
func (p *Processor) producerCluster(seq uint64, dist uint32) int {
	if dist == 0 {
		return -1
	}
	pseq := seq - uint64(dist)
	if pseq+uint64(dist) < uint64(dist) || pseq < p.headSeq || pseq >= p.tailSeq {
		return -1
	}
	return int(p.at(pseq).cluster)
}

// producerUnfinished reports whether the producer dist back from seq is
// still executing. It is steering's criticality hint (§2.1: "our steering
// heuristic also uses a criticality predictor [Fields et al., Tune et al.]
// to give a higher priority to the cluster that produces the critical
// source operand"): an operand whose producer has not finished by steering
// time is predicted to arrive last, which is the critical one.
func (p *Processor) producerUnfinished(seq uint64, dist uint32) bool {
	if dist == 0 {
		return false
	}
	pseq := seq - uint64(dist)
	if pseq < p.headSeq || pseq >= p.tailSeq {
		return false
	}
	u := p.at(pseq)
	if !u.issued {
		return true
	}
	if u.isLoad() && !u.memDone {
		return true
	}
	return u.doneAt > p.cycle
}

func (p *Processor) steerOperandMajority(in *isa.Instruction, seq uint64) int {
	active := p.active
	var votes [MaxClusters]int

	c1 := p.producerCluster(seq, in.SrcDist1)
	c2 := p.producerCluster(seq, in.SrcDist2)
	if c1 >= 0 && c1 < active {
		votes[c1]++
		// Criticality: prefer the cluster producing the operand
		// predicted to arrive last.
		if p.producerUnfinished(seq, in.SrcDist1) {
			votes[c1]++
		}
	}
	if c2 >= 0 && c2 < active {
		votes[c2]++
		if p.producerUnfinished(seq, in.SrcDist2) {
			votes[c2]++
		}
	}

	// Memory operations favor the cluster that services their bank: free
	// for the decentralized cache (§5: "performance is maximized when a
	// load or store is steered to the cluster that is predicted to cache
	// the corresponding data"), a tie-break toward the cache end for the
	// centralized one.
	if in.Class.IsMem() && p.cfg.Cache == DecentralizedCache {
		home, confident := p.predictHomeConfident(in)
		if confident && home < active {
			// The bank dependence dominates: a load or store not in
			// its bank's cluster pays two transfers (address there,
			// data back), so §5 steers memory operations to the
			// predicted bank even over operand affinity — but only
			// when the prediction is trustworthy.
			votes[home] += 4
		}
	}

	// One fused pass finds the load-imbalance override candidate (the
	// least loaded cluster that can accept) and the best-scoring cluster;
	// ties break toward the lower cluster index in both, matching the
	// original two-pass scan order.
	minOcc, maxOcc := 1<<30, -1
	minIdx := -1
	best := -1
	bestScore := -(1 << 60)
	for c := 0; c < active; c++ {
		occ := p.clusters[c].occupancy()
		if occ > maxOcc {
			maxOcc = occ
		}
		if !p.canAccept(c, in) {
			continue
		}
		if occ < minOcc {
			minOcc = occ
			minIdx = c
		}
		// Ties break toward lower occupancy.
		score := votes[c]*1024 - occ
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	if minIdx < 0 {
		return -1 // nothing can accept it
	}
	// Load-imbalance override: when the spread between the most and
	// least loaded active clusters exceeds the threshold, ignore
	// affinity and steer to the least loaded.
	if maxOcc-minOcc >= p.cfg.ImbalanceThreshold {
		return minIdx
	}
	return best
}

func (p *Processor) steerModN(in *isa.Instruction) int {
	active := p.active
	for tries := 0; tries < active; tries++ {
		c := p.modNCluster
		if p.modNCount >= p.cfg.ModN {
			p.modNCount = 0
			p.modNCluster = (p.modNCluster + 1) % active
			c = p.modNCluster
		}
		if c >= active {
			p.modNCluster, p.modNCount = 0, 0
			c = 0
		}
		if p.canAccept(c, in) {
			p.modNCount++
			return c
		}
		// Cluster full: move on without consuming the quota.
		p.modNCluster = (p.modNCluster + 1) % active
		p.modNCount = 0
	}
	return -1
}

func (p *Processor) steerFirstFit(in *isa.Instruction) int {
	for c := 0; c < p.active; c++ {
		if p.canAccept(c, in) {
			return c
		}
	}
	return -1
}

// predictHome returns the cluster predicted to cache a memory instruction's
// data under the decentralized model (oracle under PerfectBankPred).
func (p *Processor) predictHome(in *isa.Instruction) int {
	if p.cfg.PerfectBankPred || p.bankp == nil {
		return p.memsys.HomeCluster(in.Addr)
	}
	return p.bankp.Predict(in.PC, p.active)
}

// predictHomeConfident is predictHome plus the predictor's confidence.
func (p *Processor) predictHomeConfident(in *isa.Instruction) (int, bool) {
	if p.cfg.PerfectBankPred || p.bankp == nil {
		return p.memsys.HomeCluster(in.Addr), true
	}
	return p.bankp.PredictConfident(in.PC, p.active)
}
