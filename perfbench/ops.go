package main

// The operation executor: issues one benchmark operation against the
// store under test and checks every result against the model. An
// operation fails when any result disagrees with the model, when a CAS
// fails on the version just read, when a transaction conflicts, or when
// the store returns an error the model does not predict.

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/ariakv/aria"
)

// kv is the store surface the workloads use. aria.Store (in-process) and
// *kvnet.Client (over the wire) both implement it.
type kv interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	MGet(keys [][]byte) ([][]byte, []error)
	MPut(pairs []aria.KV) []error
	GetV(key []byte) ([]byte, uint64, error)
	CompareAndSwap(key, value []byte, expect uint64) error
	PutTTL(key, value []byte, ttl time.Duration) error
	TxnCommit(ops []aria.TxnOp) error
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	opMGet
	opMPut
	opCAS
	opTxn
	opTTLPut
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan", "mget", "mput", "cas", "txn", "ttl_put"}

const (
	batchKeys = 16 // keys per MGet/MPut
	scanKeys  = 16 // keys per Scan
	txnKeys   = 4  // keys per transaction
	// farTTL outlives any run, so TTL writes behave as plain writes for
	// the model while still taking the store's TTL path.
	farTTL = 24 * time.Hour
)

// runner executes operations for one store session.
type runner struct {
	m      *model
	keys   *keyPicker
	rng    *rng
	kv     kv
	ranger aria.Ranger  // nil unless the workload scans
	shards aria.Sharded // nil unless the store is sharded
	tr     *tracer      // nil when untraced
	lat    *[2]latHist  // the window's Get and Put latencies; nil when not recorded
	order  []opKind     // one round's operations, reshuffled per round
	// timeStalls, when set, adds the time of every operation that took
	// over a millisecond to stallNs: on a store with background
	// checkpoints, that is mostly the caller waiting for the checkpointer
	// (garbage collection counts too).
	timeStalls bool
	stallNs    int64

	attempted, failed int
	userBytes         int64 // key+value bytes of acknowledged writes
	txns, crossTxns   int
	firstFailure      string

	// scratch, reused so the loop allocates only inside the store
	kbuf  [batchKeys][]byte
	vbuf  [batchKeys][]byte
	ebuf  []byte
	ids   [batchKeys]int
	vers  [txnKeys]uint64
	gens  [batchKeys]uint32
	sids  []int
	pairs []aria.KV
	tops  []aria.TxnOp
}

func newRunner(m *model, keys *keyPicker, composition []opKind) *runner {
	r := &runner{m: m, keys: keys, order: slices.Clone(composition)}
	for i := range r.kbuf {
		r.kbuf[i] = make([]byte, 0, keyLen)
		r.vbuf[i] = make([]byte, 0, 4096+64)
	}
	r.ebuf = make([]byte, 0, 4096+64)
	r.sids = make([]int, 0, scanKeys)
	r.pairs = make([]aria.KV, batchKeys)
	r.tops = make([]aria.TxnOp, txnKeys)
	return r
}

// round runs one shuffled round of the workload's composition.
func (r *runner) round() {
	for i := len(r.order) - 1; i > 0; i-- {
		j := r.rng.intn(i + 1)
		r.order[i], r.order[j] = r.order[j], r.order[i]
	}
	for _, k := range r.order {
		r.exec(k)
	}
}

func (r *runner) exec(k opKind) {
	var root, prev int64
	if r.tr != nil {
		root, prev = r.tr.enter(nOp[k])
	}
	var t0 time.Time
	if r.timeStalls {
		t0 = time.Now()
	}
	var err error
	switch k {
	case opGet:
		err = r.get()
	case opPut:
		err = r.put(false)
	case opTTLPut:
		err = r.put(true)
	case opScan:
		err = r.scan()
	case opMGet:
		err = r.mget()
	case opMPut:
		err = r.mput()
	case opCAS:
		err = r.cas()
	case opTxn:
		err = r.txn()
	}
	if r.tr != nil {
		r.tr.leave(root, prev)
	}
	if r.timeStalls {
		if d := time.Since(t0); d > time.Millisecond {
			r.stallNs += int64(d)
		}
	}
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", kindNames[k], err))
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
	}
}

var errMismatch = errors.New("result disagrees with the model")

// checkRead compares one read result for id with the model.
func (r *runner) checkRead(id int, got []byte, err error) error {
	if !r.m.live[id] {
		if errors.Is(err, aria.ErrNotFound) {
			return nil
		}
		return fmt.Errorf("key %d: want NotFound, got err=%v: %w", id, err, errMismatch)
	}
	if err != nil {
		return fmt.Errorf("key %d: %w", id, err)
	}
	r.ebuf = r.m.value(r.ebuf, id, r.m.gen[id])
	if !bytes.Equal(got, r.ebuf) {
		return fmt.Errorf("key %d gen %d: %w", id, r.m.gen[id], errMismatch)
	}
	return nil
}

// next prepares a write of id's next generation into slot i.
func (r *runner) next(i, id int) (key, val []byte) {
	r.ids[i] = id
	r.gens[i] = r.m.gen[id] + 1
	r.kbuf[i] = putKey(r.kbuf[i], id)
	r.vbuf[i] = r.m.value(r.vbuf[i], id, r.gens[i])
	return r.kbuf[i], r.vbuf[i]
}

// commit records the acknowledged writes prepared in slots [0, n).
func (r *runner) commit(n int) {
	for i := 0; i < n; i++ {
		r.m.set(r.ids[i], r.gens[i])
		r.userBytes += int64(len(r.kbuf[i]) + len(r.vbuf[i]))
	}
}

func (r *runner) get() error { return r.getID(r.keys.pick(r.rng)) }

func (r *runner) getID(id int) error {
	k := putKey(r.kbuf[0], id)
	t0 := time.Now()
	v, err := r.kv.Get(k)
	r.record(0, time.Since(t0))
	return r.checkRead(id, v, err)
}

func (r *runner) put(ttl bool) error { return r.putID(r.keys.pick(r.rng), ttl) }

func (r *runner) putID(id int, ttl bool) error {
	k, v := r.next(0, id)
	var err error
	if ttl {
		err = r.kv.PutTTL(k, v, farTTL)
	} else {
		t0 := time.Now()
		err = r.kv.Put(k, v)
		r.record(1, time.Since(t0))
	}
	if err != nil {
		return err
	}
	r.commit(1)
	return nil
}

func (r *runner) scan() error { return r.scanFrom(r.keys.pick(r.rng)) }

func (r *runner) scanFrom(start int) error {
	want := r.m.scan(start, scanKeys, r.sids[:0])
	n := 0
	var bad error
	err := r.ranger.Scan(putKey(r.kbuf[0], start), nil, func(k, v []byte) bool {
		if n >= len(want) {
			bad = fmt.Errorf("scan from %d: more than %d pairs: %w", start, len(want), errMismatch)
			return false
		}
		if id := keyID(k); id != want[n] {
			bad = fmt.Errorf("scan from %d: pair %d is key %d, want %d: %w", start, n, id, want[n], errMismatch)
			return false
		}
		if e := r.checkRead(want[n], v, nil); e != nil {
			bad = e
			return false
		}
		n++
		return n < scanKeys
	})
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case n != len(want):
		return fmt.Errorf("scan from %d: %d pairs, want %d: %w", start, n, len(want), errMismatch)
	}
	return nil
}

func (r *runner) mget() error {
	ids := r.ids[:batchKeys]
	r.keys.distinct(r.rng, ids)
	keys := r.kbuf[:]
	for i, id := range ids {
		keys[i] = putKey(keys[i], id)
	}
	vals, errs := r.kv.MGet(keys)
	if len(vals) != len(ids) || (errs != nil && len(errs) != len(ids)) {
		return fmt.Errorf("mget: %d values, %d errors for %d keys: %w", len(vals), len(errs), len(ids), errMismatch)
	}
	for i, id := range ids {
		var err error
		if errs != nil {
			err = errs[i]
		}
		if e := r.checkRead(id, vals[i], err); e != nil {
			return e
		}
	}
	return nil
}

func (r *runner) mput() error {
	ids := r.ids[:batchKeys]
	r.keys.distinct(r.rng, ids)
	for i, id := range ids {
		k, v := r.next(i, id)
		r.pairs[i] = aria.KV{Key: k, Value: v}
	}
	for _, err := range r.kv.MPut(r.pairs) {
		if err != nil {
			return err
		}
	}
	r.commit(batchKeys)
	return nil
}

// readVersion reads id with GetV, checks it against the model and
// returns the version to condition the following write on (0 when the
// model says the key is absent).
func (r *runner) readVersion(id int) (uint64, error) {
	v, ver, err := r.kv.GetV(putKey(r.kbuf[0], id))
	if e := r.checkRead(id, v, err); e != nil {
		return 0, e
	}
	if r.m.live[id] && ver == 0 {
		return 0, fmt.Errorf("getv key %d: live key at version 0: %w", id, errMismatch)
	}
	return ver, nil
}

func (r *runner) cas() error {
	id := r.keys.pick(r.rng)
	ver, err := r.readVersion(id)
	if err != nil {
		return err
	}
	k, v := r.next(0, id)
	if err := r.kv.CompareAndSwap(k, v, ver); err != nil {
		return err
	}
	r.commit(1)
	return nil
}

func (r *runner) txn() error {
	ids := r.ids[:txnKeys]
	r.keys.distinct(r.rng, ids)
	for i, id := range ids {
		ver, err := r.readVersion(id)
		if err != nil {
			return err
		}
		r.vers[i] = ver
	}
	r.txns++
	if r.shards != nil {
		first := r.shards.ShardFor(putKey(r.ebuf, ids[0]))
		for _, id := range ids[1:] {
			if r.shards.ShardFor(putKey(r.ebuf, id)) != first {
				r.crossTxns++
				break
			}
		}
	}
	for i, id := range ids {
		k, v := r.next(i, id)
		r.tops[i] = aria.TxnOp{Key: k, Value: v, Check: true, Version: r.vers[i]}
	}
	if err := r.kv.TxnCommit(r.tops); err != nil {
		return err
	}
	r.commit(txnKeys)
	return nil
}

// record adds a Get (i=0) or Put (i=1) latency to the window's
// histograms, when latencies are being recorded.
func (r *runner) record(i int, d time.Duration) {
	if r.lat != nil {
		r.lat[i].add(uint32(min(int64(d), 1<<32-1)))
	}
}

// latSubBits sets latHist's resolution: every power of two above
// 2^(latSubBits+1) ns is split into 2^latSubBits buckets, so a bucket is
// at most 1/1024 of its values wide; below 2048 ns buckets are 1 ns.
const latSubBits = 10

// latHist counts latencies in nanoseconds in log-linear buckets, so the
// quantiles of a whole window come from fixed memory, allocated before
// the window, however many operations it holds.
type latHist struct {
	counts [(32-latSubBits)<<latSubBits + 1<<latSubBits]uint32
	n      int
}

func (h *latHist) add(ns uint32) {
	i := int(ns)
	if ns >= 1<<(latSubBits+1) {
		e := bits.Len32(ns) - (latSubBits + 1)
		i = e<<latSubBits + int(ns>>e)
	}
	h.counts[i]++
	h.n++
}

// quantileUS returns the q-quantile (nearest rank, as the sample at
// index q·n of the sorted samples) in microseconds: the lower edge of
// the bucket holding that sample.
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := min(int(q*float64(h.n)), h.n-1)
	for i, c := range h.counts {
		if k -= int(c); k < 0 {
			if i < 1<<(latSubBits+1) {
				return float64(i) / 1e3
			}
			e := i>>latSubBits - 1
			return float64((i-e<<latSubBits)<<e) / 1e3
		}
	}
	panic("latHist: count out of step")
}
