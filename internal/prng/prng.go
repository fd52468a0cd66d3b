// Package prng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Every experiment in this repository must be reproducible from a single
// 64-bit seed. The standard library's math/rand (v1) global functions are not
// seedable per-experiment without global state, and math/rand/v2 is not
// splittable; this package implements xoshiro256** seeded via SplitMix64,
// which gives independent streams via Split and stable results across
// platforms and Go versions.
package prng

import "math/bits"

// Source is a deterministic random number source (xoshiro256**).
//
// The zero value is not usable; construct with New. A Source is not safe for
// concurrent use; use Split to derive independent sources for concurrent
// goroutines.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is used
// for seeding so that nearby seeds yield unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources constructed with the same
// seed produce identical output sequences.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the receiver in place to the exact state New(seed)
// produces, so a pooled Source value can be reused across trials without
// allocating a fresh generator per trial.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitmix64(&sm)
	}
	// Avoid the all-zero state (cannot occur with splitmix64, but keep the
	// invariant explicit for anyone editing the seeding procedure).
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9

	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)

	return result
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It satisfies the
// math/rand Source interface shape so a Source can back a rand.Rand if ever
// needed.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := s.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Split returns a new Source whose stream is statistically independent of the
// receiver's remaining stream. The receiver is advanced.
func (s *Source) Split() *Source {
	dst := new(Source)
	s.SplitTo(dst)
	return dst
}

// SplitTo is Split into a caller-owned destination: it advances the receiver
// exactly as Split does and leaves dst in the exact state the Source returned
// by Split would have, without allocating. dst may be the receiver itself.
func (s *Source) SplitTo(dst *Source) {
	dst.Reseed(s.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
