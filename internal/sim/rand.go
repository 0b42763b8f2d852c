package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator (splitmix64).
// We avoid math/rand so that the sequence is pinned by this repository, not
// by the Go release: experiment outputs must be bit-stable across toolchains.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed. Two generators with the same
// seed produce identical sequences.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Mix hashes a tuple of values into one well-distributed 64-bit seed by
// running each through a splitmix64 finalizer round. Unlike shift-and-xor
// packing, nearby tuples (adjacent attempts, wide fan-out replicas) land in
// unrelated regions of the seed space, so per-tuple random decisions do not
// correlate.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1,
// suitable for Poisson inter-arrival times.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}
