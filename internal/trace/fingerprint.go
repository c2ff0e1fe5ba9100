package trace

import "clustersim/internal/isa"

// The content fingerprint is FNV-1a 64 over the length-prefixed Meta
// strings, SourceFP, Seed, the instruction count, and six little-endian
// words per instruction: PC, the class with the HasDest/Taken/EndsBlock
// bits at 8-10, SrcDist1, SrcDist2, Addr and Target. Trace files (format
// versions 1 and 2 alike), replay snapshots and trace:<fp> cache keys all
// carry this value, so its definition is fixed.
//
// FNV-1a folds one byte as h = (h ^ b) * prime, and with b = 0 the XOR is
// the identity. A word's zero high bytes therefore fold as a single
// multiplication by a power of the prime, and the kernel hashes each word
// byte by byte only up to its highest non-zero byte. The result is exact.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k (mod 2^64): folding k zero bytes.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fingerprint is a running content fingerprint. It is a plain value, so
// hashing allocates nothing.
type fingerprint uint64

// newFingerprint starts the fingerprint of an n-instruction stream.
func newFingerprint(m Meta, n uint64) fingerprint {
	h := fingerprint(fnvOffset)
	h.str(m.Name)
	h.str(m.SourceKind)
	h.str(m.SourceID)
	h.word(m.SourceFP)
	h.word(m.Seed)
	h.word(n)
	return h
}

// word folds one little-endian 64-bit word.
func (h *fingerprint) word(w uint64) {
	s, k := uint64(*h), 0
	for ; w != 0; w >>= 8 {
		s = (s ^ w&0xff) * fnvPrime
		k++
	}
	*h = fingerprint(s * fnvPrimePow[8-k])
}

// str folds a length-prefixed string.
func (h *fingerprint) str(v string) {
	h.word(uint64(len(v)))
	s := uint64(*h)
	for i := 0; i < len(v); i++ {
		s = (s ^ uint64(v[i])) * fnvPrime
	}
	*h = fingerprint(s)
}

// Class-word flag bits of the fingerprinted form.
const (
	fpHasDest   = 1 << 8
	fpTaken     = 1 << 9
	fpEndsBlock = 1 << 10
)

// instr folds one instruction's six words.
func (h *fingerprint) instr(in *isa.Instruction) {
	meta := uint64(in.Class)
	if in.HasDest {
		meta |= fpHasDest
	}
	if in.Taken {
		meta |= fpTaken
	}
	if in.EndsBlock {
		meta |= fpEndsBlock
	}
	h.word(in.PC)
	h.word(meta)
	h.word(uint64(in.SrcDist1))
	h.word(uint64(in.SrcDist2))
	h.word(in.Addr)
	h.word(in.Target)
}

// sum returns the fingerprint value.
func (h fingerprint) sum() uint64 { return uint64(h) }
