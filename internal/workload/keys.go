package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// KeyChooser picks which key index an operation targets. Implementations
// must be deterministic functions of the random source they are handed.
type KeyChooser interface {
	// Pick returns a key index in [0, Keys()).
	Pick(r *rand.Rand) int
	// Keys returns the keyspace size.
	Keys() int
	// String describes the distribution for config echoes.
	String() string
}

// KeyName renders a key index as the canonical store key. Adjacent
// indices share prefixes, which is what scans exploit.
func KeyName(i int) string { return fmt.Sprintf("k%06d", i) }

// Uniform spreads accesses evenly over the keyspace.
type Uniform struct {
	n int
}

// NewUniform returns a uniform distribution over n keys. It panics on
// n < 1 (a programmer error, like an invalid registration).
func NewUniform(n int) Uniform {
	if n < 1 {
		panic(fmt.Sprintf("workload: uniform keyspace %d", n))
	}
	return Uniform{n: n}
}

// Pick returns a uniformly random key index.
func (u Uniform) Pick(r *rand.Rand) int { return r.Intn(u.n) }

// Keys returns the keyspace size.
func (u Uniform) Keys() int { return u.n }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%d)", u.n) }

// Zipf is the YCSB-style zipfian distribution over n keys with exponent
// theta in [0, 1): key 0 is the hottest, popularity falls as rank^-theta.
// theta = 0 degenerates to uniform; theta = 0.99 is the YCSB default
// "zipfian" skew. Ranks are not scrambled — key 0 being hottest keeps
// runs easy to reason about and scans meaningful.
type Zipf struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf precomputes the zeta terms (Gray et al., "Quickly generating
// billion-record synthetic databases"). It panics on n < 1 or theta
// outside [0, 1).
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 || theta < 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipf(n=%d, theta=%v)", n, theta))
	}
	zetan := zeta(n, theta)
	return &Zipf{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
	}
}

// zeta returns the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Pick draws one zipfian key index.
func (z *Zipf) Pick(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if z.n > 1 && uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Keys returns the keyspace size.
func (z *Zipf) Keys() int { return z.n }

func (z *Zipf) String() string { return fmt.Sprintf("zipf(%d, theta=%.2f)", z.n, z.theta) }
