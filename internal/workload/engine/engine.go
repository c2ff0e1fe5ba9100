// Package engine is the synthetic-program generator behind every workload:
// a program is a cyclic sequence of phases, each a Kernel executed for a
// number of dynamic instructions. Each phase is compiled into statically
// laid-out basic blocks (stable PCs, so branch, bank and reconfiguration
// predictors can learn) executed as loops, with dynamic dependence
// distances that realize the kernel's number of parallel dependence chains.
//
// The engine knows nothing of benchmarks: internal/spec compiles spec
// documents into Custom calls, and internal/workload resolves the nine
// built-in benchmark names through internal/spec.
package engine

import (
	"math"

	"clustersim/internal/isa"
	"clustersim/internal/rng"
)

// Generator produces a deterministic committed-path instruction stream.
// Implementations are not safe for concurrent use.
type Generator interface {
	// Name returns the program name.
	Name() string
	// Next fills in with the next dynamic instruction.
	Next(in *isa.Instruction)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// staticInstr is one compiled instruction slot of a basic block.
type staticInstr struct {
	class   isa.Class
	chain   uint16
	cross   int16 // second-operand chain, or -1
	skip    uint8 // forward branch: instructions skipped when taken
	random  bool  // forward branch: data-dependent outcome
	loopEnd bool  // block-terminating backward branch
}

// compiledPhase is a phase's static code: blocks of staticInstrs at stable
// PCs, plus optional function bodies.
type compiledPhase struct {
	base   uint64
	blocks [][]staticInstr
	fns    [][]staticInstr
}

const (
	phaseStride = 1 << 24 // PC space per phase
	blockStride = 1 << 13 // PC space per block
	fnRegion    = 1 << 23 // offset of function bodies within a phase
)

// engine executes a program, emitting one dynamic instruction per Next call.
type engine struct {
	name     string  //simlint:nostate construction input; a snapshot only restores onto a same-(benchmark,seed) engine
	phases   []Phase //simlint:nostate construction input; a snapshot only restores onto a same-(benchmark,seed) engine
	seed     uint64  //simlint:nostate construction input; a snapshot only restores onto a same-(benchmark,seed) engine
	compiled []compiledPhase

	r   *rng.Source
	seq uint64

	phaseIdx  int
	remaining int64

	blk        int
	idx        int
	iter       int
	itersThis  int
	blocksDone int

	pendingCall bool
	callPC      uint64
	inFn        bool
	fnIdx       int
	fnPos       int
	retPC       uint64

	chainLast []uint64 // seq+1 of each chain's last arithmetic producer; 0 = none
	lastLoad  []uint64 // seq+1 of each chain's most recent load; 0 = none
	cursor    []uint64 // per-chain address cursors
	addrBase  []uint64 // per-chain region bases
	regionLen uint64
}

func newEngine(name string, phases []Phase, seed uint64) *engine {
	e := &engine{name: name, phases: phases, seed: seed}
	// Compile every phase's static code deterministically from the seed.
	cr := rng.New(seed ^ 0xC0DEC0DEC0DEC0DE)
	e.compiled = make([]compiledPhase, len(phases))
	for i := range phases {
		e.compiled[i] = compilePhase(i, phases[i].Kernel, cr.Fork())
	}
	e.Reset()
	return e
}

// Name implements Generator.
func (e *engine) Name() string { return e.name }

// Reset implements Generator.
func (e *engine) Reset() {
	e.r = rng.New(e.seed ^ 0xD15EA5EDBA5EBA11)
	e.seq = 0
	e.phaseIdx = -1
	e.remaining = 0
	e.advancePhase()
}

func (e *engine) advancePhase() {
	e.phaseIdx = (e.phaseIdx + 1) % len(e.phases)
	ph := &e.phases[e.phaseIdx]
	e.remaining = ph.Length
	k := &ph.Kernel
	e.blk, e.idx, e.iter, e.blocksDone = 0, 0, 0, 0
	e.pendingCall, e.inFn, e.fnIdx, e.fnPos = false, false, 0, 0
	e.itersThis = e.drawIters(k)
	// Phase transitions happen mid-simulation: reuse the per-chain state
	// slices across phases so steady-state execution never allocates.
	e.chainLast = resetChainState(e.chainLast, k.Chains)
	e.lastLoad = resetChainState(e.lastLoad, k.Chains)
	e.cursor = resetChainState(e.cursor, k.Chains)
	e.addrBase = resetChainState(e.addrBase, k.Chains)
	e.regionLen = uint64(k.Footprint) / uint64(k.Chains)
	if e.regionLen < 64 {
		e.regionLen = 64
	}
	e.regionLen &^= 7
	// Regions are phase-local so distinct phases have distinct data.
	// Cursors start staggered so the chains' region wrap-arounds (and the
	// re-streaming miss bursts they cause) spread evenly in time instead
	// of arriving in lockstep.
	dataBase := uint64(e.phaseIdx+1) << 32
	stride := uint64(k.Stride)
	if stride == 0 {
		stride = 8
	}
	accessesPerWrap := e.regionLen / stride
	if accessesPerWrap == 0 {
		accessesPerWrap = 1
	}
	for c := range e.addrBase {
		e.addrBase[c] = dataBase + uint64(c)*e.regionLen
		e.cursor[c] = uint64(c) * accessesPerWrap / uint64(len(e.addrBase))
	}
}

func (e *engine) drawIters(k *Kernel) int {
	it := k.LoopIters
	if k.IterJitter > 0 {
		it += e.r.Intn(2*k.IterJitter+1) - k.IterJitter
	}
	if it < 2 {
		it = 2
	}
	return it
}

// Next implements Generator.
func (e *engine) Next(in *isa.Instruction) {
	if e.remaining <= 0 {
		e.advancePhase()
	}
	cp := &e.compiled[e.phaseIdx]
	k := &e.phases[e.phaseIdx].Kernel

	switch {
	case e.pendingCall:
		fnPC := cp.base + fnRegion + uint64(e.fnIdx)*blockStride
		*in = isa.Instruction{
			PC: e.callPC, Class: isa.Call, Taken: true, Target: fnPC, EndsBlock: true,
		}
		e.retPC = e.callPC + 4
		e.pendingCall = false
		e.inFn = true
		e.fnPos = 0
	case e.inFn:
		fn := cp.fns[e.fnIdx]
		s := &fn[e.fnPos]
		pc := cp.base + fnRegion + uint64(e.fnIdx)*blockStride + uint64(e.fnPos)*4
		if s.class == isa.Return {
			*in = isa.Instruction{
				PC: pc, Class: isa.Return, Taken: true, Target: e.retPC, EndsBlock: true,
			}
			e.inFn = false
		} else {
			e.fill(in, s, pc, k)
			e.fnPos++
		}
	default:
		blkCode := cp.blocks[e.blk]
		s := &blkCode[e.idx]
		pc := cp.base + uint64(e.blk)*blockStride + uint64(e.idx)*4
		switch {
		case s.loopEnd:
			// The loop branch tests an induction variable, which is
			// always at hand — it resolves as soon as it issues.
			taken := e.iter+1 < e.itersThis
			*in = isa.Instruction{
				PC: pc, Class: isa.Branch, Taken: taken,
				Target:    cp.base + uint64(e.blk)*blockStride,
				EndsBlock: true,
			}
			if taken {
				e.iter++
				e.idx = 0
			} else {
				e.iter = 0
				e.idx = 0
				e.blocksDone++
				if k.CallEvery > 0 && e.blocksDone%k.CallEvery == 0 {
					e.pendingCall = true
					e.callPC = pc + 8 // call site just past the loop branch
					// Each call site invokes a fixed callee so its
					// target is learnable.
					e.fnIdx = e.blk % len(cp.fns)
				}
				e.blk = (e.blk + 1) % len(cp.blocks)
				e.itersThis = e.drawIters(k)
			}
		case s.class == isa.Branch:
			// Forward conditional branch within the body. Random
			// (data-dependent) branches take the loop data with
			// them: their condition hangs off a compute chain, so
			// they also *resolve* late. Predictable guards test
			// loop-invariant conditions: never taken, cheap to
			// resolve.
			var taken bool
			var dep uint32
			if s.random {
				taken = e.r.Bool(k.RandTakenProb)
				// The condition tests the chain's latest *load* —
				// compare-and-branch on just-read data, as compiled
				// code does — so resolution tracks load latency, not
				// the depth of the arithmetic chain.
				c := int(s.chain) % len(e.chainLast)
				m := e.lastLoad[c]
				if m == 0 {
					m = e.chainLast[c]
				}
				dep = e.distTo(m)
			}
			*in = isa.Instruction{
				PC: pc, Class: isa.Branch, Taken: taken,
				Target:    pc + 4 + uint64(s.skip)*4,
				EndsBlock: true,
				SrcDist1:  dep,
			}
			e.idx++
			if taken {
				e.idx += int(s.skip)
				if e.idx >= len(blkCode)-1 {
					e.idx = len(blkCode) - 1
				}
			}
		default:
			e.fill(in, s, pc, k)
			e.idx++
		}
	}
	e.seq++
	e.remaining--
}

// fill emits a non-control instruction and maintains chain state.
//
// The dependence model: arithmetic forms the serial spine of each chain.
// Loads feed a chain from the side — their addresses come from induction
// variables (cheap) unless the kernel pointer-chases (RandomAddr), in which
// case each load's address is the previous load of the chain. The next
// arithmetic operation on the chain consumes the most recent load's value
// as its second operand. Stores take their address from induction variables
// (mostly) and their data from a chain. This is the shape of compiled loop
// code, and it determines everything the timing model measures: chain count
// sets ILP, load placement sets memory-level parallelism, and the consumes
// establish the inter-cluster traffic once chains are steered apart.
func (e *engine) fill(in *isa.Instruction, s *staticInstr, pc uint64, k *Kernel) {
	c := int(s.chain)
	if c >= len(e.chainLast) {
		c %= len(e.chainLast)
	}
	*in = isa.Instruction{PC: pc, Class: s.class}
	switch s.class {
	case isa.Load:
		in.Addr = e.nextAddr(c, k)
		adf := k.AddrDepFrac
		if adf == 0 {
			adf = 0.15
		}
		if k.Chase {
			// Pointer chasing: the address is the previous load.
			in.SrcDist1 = e.distTo(e.lastLoad[c])
		} else if e.r.Bool(adf) {
			in.SrcDist1 = e.distTo(e.chainLast[c])
		}
		in.HasDest = true
		e.lastLoad[c] = e.seq + 1
	case isa.Store:
		in.Addr = e.nextAddr(c, k)
		if e.r.Bool(0.10) {
			in.SrcDist1 = e.distTo(e.chainLast[c]) // computed address
		}
		cross := c
		if s.cross >= 0 {
			cross = int(s.cross) % len(e.chainLast)
		}
		in.SrcDist2 = e.distTo(e.chainLast[cross]) // data operand
	default: // arithmetic: the chain spine
		if e.r.Bool(k.FreshFrac) {
			in.SrcDist1 = 0
		} else {
			in.SrcDist1 = e.distTo(e.chainLast[c])
		}
		switch {
		case e.lastLoad[c] > e.chainLast[c]:
			// Consume the chain's most recent unconsumed load.
			in.SrcDist2 = e.distTo(e.lastLoad[c])
		case s.cross >= 0:
			in.SrcDist2 = e.distTo(e.chainLast[int(s.cross)%len(e.chainLast)])
		}
		in.HasDest = true
		e.chainLast[c] = e.seq + 1
	}
}

// distTo converts a seq+1 producer marker into a dynamic distance.
func (e *engine) distTo(marker uint64) uint32 {
	if marker == 0 {
		return 0
	}
	d := e.seq + 1 - marker
	if d > math.MaxUint32 {
		return 0
	}
	return uint32(d)
}

// nextAddr produces the next effective address for chain c.
func (e *engine) nextAddr(c int, k *Kernel) uint64 {
	if k.RandomAddr {
		off := e.r.Uint64() % e.regionLen
		return e.addrBase[c] + off&^7
	}
	reuse := k.ReuseFrac
	switch {
	case reuse == 0:
		reuse = 0.35
	case reuse < 0:
		reuse = 0
	}
	cur := e.cursor[c]
	if reuse > 0 && cur > 4 && e.r.Bool(reuse) {
		// Stencil-style re-touch of a recent word.
		cur -= uint64(1 + e.r.Intn(4))
	} else {
		e.cursor[c]++
	}
	off := (cur * uint64(k.Stride)) % e.regionLen
	return e.addrBase[c] + off&^7
}

// mixCarry accumulates the fractional random-branch remainder across blocks
// so a phase realizes its configured mispredict density exactly even when
// the per-block expectation is below one (independent per-slot draws would
// make the mispredict rate a seed-dependent accident). Class counts, by
// contrast, are rounded identically for every block: the phase-detection
// algorithms compare per-interval branch/memref counts at a 1% threshold,
// and a ±1-slot difference between blocks of the *same* kernel would read
// as a phase change.
type mixCarry struct {
	random float64
}

// take converts a fractional demand into a whole count, carrying the
// remainder forward.
func (m *mixCarry) take(carry *float64, want float64) int {
	*carry += want
	n := int(*carry)
	*carry -= float64(n)
	return n
}

// compilePhase lays out a phase's static code from the kernel parameters.
func compilePhase(idx int, k Kernel, r *rng.Source) compiledPhase {
	cp := compiledPhase{base: uint64(idx+1) * phaseStride}
	nb := k.StaticBlocks
	if nb < 1 {
		nb = 1
	}
	var carry mixCarry
	cp.blocks = make([][]staticInstr, nb)
	for b := range cp.blocks {
		cp.blocks[b] = compileBlock(k, r, true, &carry)
	}
	if k.CallEvery > 0 {
		nf := k.Funcs
		if nf < 1 {
			nf = 1
		}
		cp.fns = make([][]staticInstr, nf)
		for f := range cp.fns {
			body := compileBlock(k, r, false, &carry)
			body[len(body)-1] = staticInstr{class: isa.Return}
			cp.fns[f] = body
		}
	}
	return cp
}

// compileBlock lays out one basic block: LoopBody-1 body slots plus a
// terminating slot (loop branch, or placeholder replaced by Return for
// function bodies). Class counts are exact (stratified by carry); positions
// are shuffled deterministically.
func compileBlock(k Kernel, r *rng.Source, loop bool, carry *mixCarry) []staticInstr {
	n := k.LoopBody
	if n < 4 {
		n = 4
	}
	body := n - 1
	nLoad := int(k.LoadFrac*float64(body) + 0.5)
	nStore := int(k.StoreFrac*float64(body) + 0.5)
	nBranch := int(k.BranchFrac*float64(body) + 0.5)
	if nLoad+nStore+nBranch > body {
		nBranch = body - nLoad - nStore
		if nBranch < 0 {
			nBranch = 0
		}
	}
	nRandom := carry.take(&carry.random, k.RandBranchFrac*float64(nBranch))

	classes := make([]isa.Class, body)
	i := 0
	for j := 0; j < nLoad; j++ {
		classes[i] = isa.Load
		i++
	}
	for j := 0; j < nStore; j++ {
		classes[i] = isa.Store
		i++
	}
	for j := 0; j < nBranch; j++ {
		classes[i] = isa.Branch
		i++
	}
	for ; i < body; i++ {
		if k.FP {
			if r.Bool(k.MultFrac) {
				classes[i] = isa.FPMult
			} else {
				classes[i] = isa.FPALU
			}
		} else {
			if r.Bool(k.MultFrac) {
				classes[i] = isa.IntMult
			} else {
				classes[i] = isa.IntALU
			}
		}
	}
	// Deterministic Fisher-Yates shuffle.
	for j := body - 1; j > 0; j-- {
		o := r.Intn(j + 1)
		classes[j], classes[o] = classes[o], classes[j]
	}

	code := make([]staticInstr, n)
	chain := uint16(r.Intn(max(1, k.Chains)))
	randomLeft := nRandom
	for i := 0; i < body; i++ {
		s := &code[i]
		s.cross = -1
		s.chain = chain
		chain = uint16((int(chain) + 1) % max(1, k.Chains))
		s.class = classes[i]
		switch s.class {
		case isa.Store:
			if r.Bool(0.5) && k.Chains > 1 {
				s.cross = int16(r.Intn(k.Chains))
			}
		case isa.Branch:
			s.skip = uint8(1 + r.Intn(3))
			if randomLeft > 0 {
				s.random = true
				randomLeft--
			}
		case isa.Load:
		default:
			if r.Bool(k.CrossFrac) && k.Chains > 1 {
				s.cross = int16(r.Intn(k.Chains))
			}
		}
	}
	last := &code[n-1]
	last.cross = -1
	last.chain = chain
	if loop {
		last.class = isa.Branch
		last.loopEnd = true
	}
	return code
}

// resetChainState returns a zeroed n-element slice, reusing s's backing
// array when it is large enough.
func resetChainState(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
