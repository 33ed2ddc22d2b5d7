package main

// Spans recorded by the traced run. Every benchmark operation opens a
// root span; every call the benchmark makes into a layer's public
// functions (the aria.Store methods, the kvnet client) opens a child.
// The server-side store spans of server-mixed are children of the kvnet
// client span that caused them: one caller, one request in flight, so
// the open client span is the cause. Every span is summarized as it
// ends; the first spanRecords spans are also kept in memory and written
// to the span file when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ariakv/aria"
)

// spanRecords bounds the spans kept for the span file (32 MB); the
// summary counts every span.
const spanRecords = 1 << 20

// Span names: "op.<kind>" per benchmark operation, "aria.<call>" per
// store call, "kvnet.<call>" per client call.
var (
	spanNames []string
	nOp       [numKinds]uint8
	nAria     = map[string]uint8{}
	nKvnet    = map[string]uint8{}
)

func init() {
	add := func(name string) uint8 {
		spanNames = append(spanNames, name)
		return uint8(len(spanNames) - 1)
	}
	for k := range nOp {
		nOp[k] = add("op." + kindNames[k])
	}
	for _, c := range []string{"get", "put", "mget", "mput", "getv", "cas", "ttl_put", "txn", "scan"} {
		nAria[c] = add("aria." + c)
		nKvnet[c] = add("kvnet." + c)
	}
}

type span struct {
	id, parent int64
	name       uint8
	start, dur int64 // ns since the tracer started
}

// spanStats summarizes one span name: call count, total duration, and
// the total duration of its direct children.
type spanStats struct {
	n             int
	total, inKids int64
}

type tracer struct {
	t0     time.Time
	mu     sync.Mutex // server goroutines record while the caller waits
	nextID int64
	spans  []span // the first spanRecords spans
	opened []span // spans not yet ended; dur holds their children's time
	stats  []spanStats
	cur    atomic.Int64 // innermost open span on the caller's side
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, spanRecords), stats: make([]spanStats, len(spanNames))}
	t.cur.Store(-1)
	return t
}

// reset drops everything recorded so far (the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.opened, t.nextID = t.spans[:0], t.opened[:0], 0
	clear(t.stats)
	t.mu.Unlock()
	t.cur.Store(-1)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name uint8) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := span{id: t.nextID, parent: t.cur.Load(), name: name, start: now}
	t.nextID++
	t.opened = append(t.opened, s)
	t.mu.Unlock()
	return s.id
}

func (t *tracer) end(id int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.opened) - 1
	for t.opened[i].id != id {
		i--
	}
	s := t.opened[i]
	t.opened = append(t.opened[:i], t.opened[i+1:]...)
	kids := s.dur
	s.dur = now - s.start
	st := &t.stats[s.name]
	st.n++
	st.total += s.dur
	st.inKids += kids
	for j := range t.opened {
		if t.opened[j].id == s.parent {
			t.opened[j].dur += s.dur
		}
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	}
}

// enter opens a span and makes it the parent of spans opened until the
// matching leave.
func (t *tracer) enter(name uint8) (id, prev int64) {
	id = t.begin(name)
	return id, t.cur.Swap(id)
}

func (t *tracer) leave(id, prev int64) {
	t.end(id)
	t.cur.Store(prev)
}

// meanUS is the mean duration of the named span in microseconds, 0 when
// the run made no such call.
func (t *tracer) meanUS(name uint8) float64 {
	s := t.stats[name]
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

// write dumps the recorded spans, in the order they ended, as
// tab-separated text.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %d spans ended in the window; the first %d follow\n", t.total(), len(t.spans))
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tdur_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.name], s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) total() int {
	n := 0
	for _, s := range t.stats {
		n += s.n
	}
	return n
}

// tracedStore records an "aria.*" span around every store call. It
// forwards ConcurrentSafe and ChargeEcall, so a server in front of it
// takes the locking path and charges the edge calls the untraced store
// gets.
type tracedStore struct {
	aria.Store
	t *tracer
}

func (s tracedStore) ConcurrentSafe() bool {
	cs, ok := s.Store.(aria.ConcurrentStore)
	return ok && cs.ConcurrentSafe()
}

func (s tracedStore) ChargeEcall() { s.Store.(aria.EdgeCaller).ChargeEcall() }

func (s tracedStore) Get(k []byte) ([]byte, error) {
	defer s.t.end(s.t.begin(nAria["get"]))
	return s.Store.Get(k)
}

func (s tracedStore) Put(k, v []byte) error {
	defer s.t.end(s.t.begin(nAria["put"]))
	return s.Store.Put(k, v)
}

func (s tracedStore) MGet(keys [][]byte) ([][]byte, []error) {
	defer s.t.end(s.t.begin(nAria["mget"]))
	return s.Store.MGet(keys)
}

func (s tracedStore) MPut(pairs []aria.KV) []error {
	defer s.t.end(s.t.begin(nAria["mput"]))
	return s.Store.MPut(pairs)
}

func (s tracedStore) GetV(k []byte) ([]byte, uint64, error) {
	defer s.t.end(s.t.begin(nAria["getv"]))
	return s.Store.GetV(k)
}

func (s tracedStore) CompareAndSwap(k, v []byte, expect uint64) error {
	defer s.t.end(s.t.begin(nAria["cas"]))
	return s.Store.CompareAndSwap(k, v, expect)
}

func (s tracedStore) PutTTL(k, v []byte, ttl time.Duration) error {
	defer s.t.end(s.t.begin(nAria["ttl_put"]))
	return s.Store.PutTTL(k, v, ttl)
}

func (s tracedStore) TxnCommit(ops []aria.TxnOp) error {
	defer s.t.end(s.t.begin(nAria["txn"]))
	return s.Store.TxnCommit(ops)
}

func (s tracedStore) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	defer s.t.end(s.t.begin(nAria["scan"]))
	return s.Store.(aria.Ranger).Scan(start, end, fn)
}

// tracedClient records a "kvnet.*" span around every client call and
// makes it the parent of the store spans the server opens meanwhile.
type tracedClient struct {
	kv
	t *tracer
}

func (c tracedClient) Get(k []byte) ([]byte, error) {
	defer c.t.leave(c.t.enter(nKvnet["get"]))
	return c.kv.Get(k)
}

func (c tracedClient) Put(k, v []byte) error {
	defer c.t.leave(c.t.enter(nKvnet["put"]))
	return c.kv.Put(k, v)
}

func (c tracedClient) MGet(keys [][]byte) ([][]byte, []error) {
	defer c.t.leave(c.t.enter(nKvnet["mget"]))
	return c.kv.MGet(keys)
}

func (c tracedClient) MPut(pairs []aria.KV) []error {
	defer c.t.leave(c.t.enter(nKvnet["mput"]))
	return c.kv.MPut(pairs)
}

func (c tracedClient) GetV(k []byte) ([]byte, uint64, error) {
	defer c.t.leave(c.t.enter(nKvnet["getv"]))
	return c.kv.GetV(k)
}

func (c tracedClient) CompareAndSwap(k, v []byte, expect uint64) error {
	defer c.t.leave(c.t.enter(nKvnet["cas"]))
	return c.kv.CompareAndSwap(k, v, expect)
}

func (c tracedClient) PutTTL(k, v []byte, ttl time.Duration) error {
	defer c.t.leave(c.t.enter(nKvnet["ttl_put"]))
	return c.kv.PutTTL(k, v, ttl)
}

func (c tracedClient) TxnCommit(ops []aria.TxnOp) error {
	defer c.t.leave(c.t.enter(nKvnet["txn"]))
	return c.kv.TxnCommit(ops)
}
