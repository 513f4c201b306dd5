package sim

// RNG is a small deterministic PRNG (xorshift64*) used everywhere the
// simulation needs randomness: TLB eviction choice, workload access patterns,
// adversary scheduling. Using our own generator rather than math/rand keeps
// the sequence stable across Go releases, which keeps experiment outputs
// byte-for-byte reproducible.
//
// Every vCPU carries its own stream (the boot vCPU's stream IS the world
// stream, so single-vCPU machines draw the historical sequence). A stream
// handed to a shared component is drawn only by the baton holder.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped so the
// xorshift state never sticks at zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bytes fills p with pseudo-random bytes.
func (r *RNG) Bytes(p []byte) {
	for i := 0; i < len(p); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
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

// splitmix64 is the finalizer used to derive well-separated child seeds from
// the world seed; it is the standard SplitMix64 output function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
