// Package tensor provides the dense linear-algebra substrate used by the
// neural-network layers: row-major matrices generic over float64 (training)
// and float32 (the serving tier), (optionally parallel) matrix products, broadcast operations, reductions, weight initialisers and
// a deterministic, splittable pseudo-random number generator.
//
// The package is self-contained (standard library only) and deliberately
// favours predictable, allocation-conscious code over micro-optimised
// assembly: the goal is a faithful, fast-enough training substrate whose
// behaviour is reproducible bit-for-bit across runs and GOMAXPROCS settings.
package tensor

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. It is not safe for concurrent use;
// derive one RNG per goroutine with Split, which produces statistically
// independent streams.
type RNG struct {
	s [4]uint64
	// cached second normal variate for the polar Box-Muller transform
	hasGauss bool
	gauss    float64
}

// splitmix64 advances the state and returns the next SplitMix64 output.
// It is used for seeding so that nearby seeds yield unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns an RNG seeded deterministically from seed. It inlines, so
// an RNG that does not outlive its caller stays on the caller's stack.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

func (r *RNG) seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new, statistically independent RNG from r. The derived
// stream is keyed by the next outputs of r, so repeated Splits yield
// distinct streams and the parent remains usable.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard normal variate using the polar Box-Muller
// method (exact, branch-light, no tables).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n indices using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// rngStateLen is the serialised size of an RNG: 4 state words, the
// cached-gaussian flag and the cached value.
const rngStateLen = 4*8 + 1 + 8

// MarshalBinary serialises the generator state so a restored stream
// continues bit-for-bit where it left off (checkpoint/resume support).
func (r *RNG) MarshalBinary() ([]byte, error) {
	out := make([]byte, rngStateLen)
	for i, s := range r.s {
		putU64(out[8*i:], s)
	}
	if r.hasGauss {
		out[32] = 1
	}
	putU64(out[33:], math.Float64bits(r.gauss))
	return out, nil
}

// UnmarshalBinary restores a state produced by MarshalBinary.
func (r *RNG) UnmarshalBinary(data []byte) error {
	if len(data) != rngStateLen {
		return errBadRNGState
	}
	for i := range r.s {
		r.s[i] = getU64(data[8*i:])
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		return errBadRNGState
	}
	r.hasGauss = data[32] == 1
	r.gauss = math.Float64frombits(getU64(data[33:]))
	return nil
}

var errBadRNGState = errorString("tensor: invalid RNG state")

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
