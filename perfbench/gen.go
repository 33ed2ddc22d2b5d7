package main

// The input generator. It is deliberately self-contained (no
// internal/workload): what the benchmark feeds the store is a function of
// -seed and this file only, so no change to the program under test can
// change its inputs.

import (
	"math"
)

// rng is splitmix64: tiny, fast, and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix(seed ^ mix(stream+0x9e3779b97f4a7c15))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipf draws popularity ranks in [0, n) with exponent theta using the
// Gray et al. "quickly generating billion-record synthetic databases"
// method (the one YCSB uses); rank 0 is the hottest.
type zipf struct {
	n                   int
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// keyPicker maps Zipf ranks onto key ids through a seeded permutation,
// so hot keys are scattered over the ordered keyspace instead of
// clustered at its start.
type keyPicker struct {
	z    *zipf
	perm []int32
}

func newKeyPicker(n int, theta float64, seed uint64) *keyPicker {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	r := newRNG(seed, 1)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &keyPicker{z: newZipf(n, theta), perm: perm}
}

func (p *keyPicker) pick(r *rng) int { return int(p.perm[p.z.rank(r)]) }

// ranks returns each key id's popularity rank.
func (p *keyPicker) ranks() []int32 {
	rank := make([]int32, len(p.perm))
	for r, id := range p.perm {
		rank[id] = int32(r)
	}
	return rank
}

// distinct fills ids with len(ids) distinct picks.
func (p *keyPicker) distinct(r *rng, ids []int) {
	for i := range ids {
	again:
		id := p.pick(r)
		for _, prev := range ids[:i] {
			if prev == id {
				goto again
			}
		}
		ids[i] = id
	}
}

// keyLen is the fixed key width: "key" plus 13 zero-padded decimal
// digits, so byte order equals id order and the model can answer scans
// from its id-ordered key list.
const keyLen = 16

func putKey(dst []byte, id int) []byte {
	dst = append(dst[:0], "key0000000000000"...)
	for i := keyLen - 1; id > 0; i-- {
		dst[i] = byte('0' + id%10)
		id /= 10
	}
	return dst
}

// keyID parses a key written by putKey, or returns -1.
func keyID(k []byte) int {
	if len(k) != keyLen || string(k[:3]) != "key" {
		return -1
	}
	id := 0
	for _, c := range k[3:] {
		if c < '0' || c > '9' {
			return -1
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// words is the vocabulary values are made of: text-like, so a pattern
// dictionary finds something to compress, as in real cache values.
var words = []string{
	"user", "name", "id", "session", "token", "profile", "photo", "friend",
	"count", "time", "stamp", "value", "status", "active", "region", "page",
	"comment", "like", "share", "feed", "story", "event", "group", "member",
	"open", "close", "http", "json", "true", "false", "null", "data",
}

// sizeFunc gives the value size of the key with popularity rank rank at
// generation gen. Sizes follow rank, not key id, so every seed gives the
// hottest keys the same sizes: the seed moves keys around the keyspace
// and reorders operations, but does not change how many bytes the hot
// set moves.
type sizeFunc func(rank int, gen uint32) int

func fixedSize(n int) sizeFunc { return func(int, uint32) int { return n } }

// etcSize draws from the Facebook ETC value-size distribution
// (Atikoglu et al., SIGMETRICS'12): generalized Pareto with location 0,
// scale 214.476 and shape 0.348238, clamped to [16, 4096] so every value
// fits the store's default MaxValueSize.
func etcSize(rank int, gen uint32) int {
	const sigma, xi = 214.476, 0.348238
	u := float64(mix(mix(uint64(rank)+2)^uint64(gen)*0x2545f4914f6cdd1d)>>11) / (1 << 53)
	n := int(sigma / xi * (math.Pow(1-u, -xi) - 1))
	if n < 16 {
		n = 16
	}
	if n > 4096 {
		n = 4096
	}
	return n
}

// fillValue writes the value of (id, gen) into dst: a deterministic run
// of vocabulary words and separators. Every (id, gen) pair gets its own
// word stream, so a stale or misplaced value never equals the expected
// one.
func fillValue(dst []byte, seed uint64, id int, gen uint32, size int) []byte {
	dst = dst[:0]
	h := mix(seed ^ mix(uint64(id)+1) ^ uint64(gen)*0x9e3779b97f4a7c15)
	for len(dst) < size {
		h = mix(h)
		w := words[h&31]
		dst = append(dst, w...)
		dst = append(dst, byte('a'+(h>>5)%26), byte('0'+(h>>10)%10), ' ')
	}
	return dst[:size]
}
