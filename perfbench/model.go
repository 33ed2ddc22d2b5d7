package main

// The reference model: what every read must return, computed by the
// benchmark alone. Values are never stored; each key's value is a pure
// function of (seed, id, gen), so the model is two fixed arrays and its
// heap does not grow during a run.

// model tracks, for every key id, the generation of its current value
// and whether it is live. The arrays are indexed by id, which is also key
// order (see putKey), so the live array is the ordered key list scans are
// answered from.
type model struct {
	seed  uint64
	size  sizeFunc
	rank  []int32 // popularity rank of each id, for sizes; nil: rank = id
	gen   []uint32
	live  []bool
	nLive int
}

func newModel(seed uint64, keys int, size sizeFunc, rank []int32) *model {
	return &model{seed: seed, size: size, rank: rank, gen: make([]uint32, keys), live: make([]bool, keys)}
}

// preloaded reports whether id is part of the bulk load. One key in
// twenty is left out, so reads see NotFound and writes insert; which
// popularity ranks are left out does not depend on the seed.
func (m *model) preloaded(id int) bool { return mix(uint64(m.rankOf(id)))%20 != 0 }

func (m *model) rankOf(id int) int {
	if m.rank == nil {
		return id
	}
	return int(m.rank[id])
}

// reset returns the model to the bulk-loaded state.
func (m *model) reset() {
	m.nLive = 0
	for id := range m.gen {
		m.gen[id], m.live[id] = 0, false
		if m.preloaded(id) {
			m.gen[id], m.live[id] = 1, true
			m.nLive++
		}
	}
}

// value writes the value id holds at generation gen into dst.
func (m *model) value(dst []byte, id int, gen uint32) []byte {
	return fillValue(dst, m.seed, id, gen, m.size(m.rankOf(id), gen))
}

// set records a successful write of generation gen to id.
func (m *model) set(id int, gen uint32) {
	m.gen[id] = gen
	if !m.live[id] {
		m.live[id] = true
		m.nLive++
	}
}

// scan appends to dst the first n live ids at or after start, in key
// order: what a verified range scan from start must return.
func (m *model) scan(start, n int, dst []int) []int {
	for id := start; id < len(m.live) && len(dst) < n; id++ {
		if m.live[id] {
			dst = append(dst, id)
		}
	}
	return dst
}
