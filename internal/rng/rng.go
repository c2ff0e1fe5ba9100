// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: the same
// seed must produce bit-identical instruction streams (and therefore
// bit-identical simulation results) on every platform and Go release. The
// standard library's math/rand keeps that promise only loosely across major
// versions, so the simulator carries its own generator: xoshiro256**, seeded
// through splitmix64, as published by Blackman and Vigna.
package rng

// Source is a deterministic xoshiro256** generator. The zero value is not a
// valid generator; obtain one with New. Source is not safe for concurrent
// use; each simulation owns its own Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed expander. It is the recommended way to
// initialize xoshiro state from a single 64-bit seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the generator to the state derived from seed.
func (r *Source) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		//simlint:allow nopanic mirrors the math/rand.Intn contract; a non-positive bound is a programming error, not a runtime condition
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift bounded generation (slightly biased for
	// enormous n; irrelevant at simulator scales).
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork returns a new Source whose stream is independent of r's future
// output. It is used to give each benchmark phase its own stream so that
// editing one phase's parameters does not perturb the others.
func (r *Source) Fork() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// State returns the generator's internal state, for checkpointing.
func (r *Source) State() [4]uint64 { return r.s }

// SetState restores a state previously returned by State. It rejects the
// all-zero state, which xoshiro cannot escape.
func (r *Source) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errZeroState
	}
	r.s = s
	return nil
}

// errZeroState is returned by SetState for the invalid all-zero state.
var errZeroState = errorString("rng: all-zero state is not a valid xoshiro state")

// errorString is a dependency-free constant error type.
type errorString string

func (e errorString) Error() string { return string(e) }
