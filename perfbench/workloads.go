package main

// The four workloads and the store session each one runs against.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/kvnet"
	"github.com/ariakv/aria/obs"
)

type workload struct {
	name   string
	keys   int     // keyspace size (ids); one in twenty starts absent
	theta  float64 // Zipf exponent of key popularity
	size   sizeFunc
	mix    []opKind // one round, shuffled per round
	server bool     // served by kvnet over loopback, one connection
	// options for a store living in dir; durable workloads set DataDir
	options    func(dir string) aria.Options
	warmRounds int // rounds run as part of set-up
	// sliceRounds is the measured window's unit: per-slice figures are
	// reported as medians over slices, and sim_kops as the median over
	// the first simSlices slices, a fixed prefix of the operation stream.
	sliceRounds int
}

// share is how many operations of one kind a round holds.
type share struct {
	kind opKind
	n    int
}

// composition expands shares into one round, in a fixed order the
// per-round shuffle starts from.
func composition(shares ...share) []opKind {
	var out []opKind
	for _, s := range shares {
		for i := 0; i < s.n; i++ {
			out = append(out, s.kind)
		}
	}
	return out
}

// Sizes are scaled down from the paper's testbed (91 MB EPC, 10M keys)
// so set-up takes seconds; the README gives each against the EPC and
// Secure Cache.
var workloads = []*workload{
	{
		name: "skew-hot", keys: 160_000, theta: 0.99, size: fixedSize(64),
		mix: composition(share{opGet, 95}, share{opPut, 5}),
		options: func(string) aria.Options {
			return aria.Options{Scheme: aria.AriaHash, EPCBytes: 3 << 20, ExpectedKeys: 160_000}
		},
		warmRounds: 500, sliceRounds: 2000,
	},
	{
		name: "ordered-scan", keys: 160_000, theta: 0.99, size: fixedSize(64),
		mix: composition(share{opGet, 50}, share{opScan, 35}, share{opPut, 15}),
		options: func(string) aria.Options {
			return aria.Options{Scheme: aria.AriaBPTree, EPCBytes: 3 << 20, ExpectedKeys: 160_000}
		},
		warmRounds: 100, sliceRounds: 300,
	},
	{
		name: "server-mixed", keys: 160_000, theta: 0.99, size: fixedSize(64),
		mix: composition(share{opGet, 8}, share{opPut, 4}, share{opMGet, 2}, share{opMPut, 1},
			share{opCAS, 2}, share{opTxn, 1}, share{opTTLPut, 2}),
		server: true,
		options: func(dir string) aria.Options {
			return aria.Options{Scheme: aria.AriaHash, EPCBytes: 3 << 20, ExpectedKeys: 160_000,
				Shards: 2, DataDir: dir, Fsync: aria.FsyncNever}
		},
		warmRounds: 500, sliceRounds: 500,
	},
	{
		name: "cold-etc", keys: 60_000, theta: 0.9, size: etcSize,
		mix: composition(share{opGet, 80}, share{opPut, 20}),
		options: func(dir string) aria.Options {
			return aria.Options{Scheme: aria.AriaHash, EPCBytes: 256 << 10, ExpectedKeys: 60_000,
				DataDir: dir, Fsync: aria.FsyncNever, ColdCompress: true, CheckpointEvery: 4000}
		},
		warmRounds: 400, sliceRounds: 200,
	},
}

// durable reports whether the workload's store lives in a data
// directory.
func (w *workload) durable() bool { return w.options("x").DataDir != "" }

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// session is one open store plus, for server workloads, the server and
// the single client connection in front of it.
type session struct {
	dir   string
	st    aria.Store // the store itself, never wrapped
	reg   *obs.Registry
	srv   *kvnet.Server
	serve chan error
	cli   *kvnet.Client
	kv    kv
}

// open creates a store in dir (removed first) and bulk-loads the model's
// preloaded keys. With tr set, the store and client are wrapped in span
// recorders and the obs registry is attached.
func open(w *workload, m *model, dir string, tr *tracer) (*session, error) {
	s := &session{}
	if w.durable() {
		s.dir = dir
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	opts := w.options(s.dir)
	opts.Seed = m.seed
	opts.MeasureOff = true
	if tr != nil {
		s.reg = obs.NewRegistry()
		opts.Metrics = s.reg
	}
	st, err := aria.Open(opts)
	if err != nil {
		return nil, err
	}
	s.st = st
	if err := s.load(m); err != nil {
		s.close()
		return nil, err
	}
	st.SetMeasuring(true)
	var inner aria.Store = st
	if tr != nil {
		inner = tracedStore{Store: st, t: tr}
	}
	s.kv = inner
	if w.server {
		if err := s.startServer(inner); err != nil {
			s.close()
			return nil, err
		}
		if tr != nil {
			s.kv = tracedClient{kv: s.cli, t: tr}
		}
	}
	return s, nil
}

// load writes every preloaded key in batches, then seals a checkpoint so
// the end-of-run reopen replays only the run's own writes.
func (s *session) load(m *model) error {
	const batch = 512
	pairs := make([]aria.KV, 0, batch)
	flush := func() error {
		for i, err := range s.st.MPut(pairs) {
			if err != nil {
				return fmt.Errorf("load key %q: %w", pairs[i].Key, err)
			}
		}
		pairs = pairs[:0]
		return nil
	}
	for id := range m.gen {
		if !m.live[id] {
			continue
		}
		pairs = append(pairs, aria.KV{Key: putKey(nil, id), Value: m.value(nil, id, m.gen[id])})
		if len(pairs) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if s.dir == "" {
		return nil
	}
	return s.st.(aria.Durable).Checkpoint()
}

func (s *session) startServer(st aria.Store) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = kvnet.NewServerConfig(st, kvnet.ServerConfig{Metrics: s.reg})
	s.srv.SetLogf(func(string, ...any) {})
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.srv.Serve(lis) }()
	s.cli, err = kvnet.DialConfig(lis.Addr().String(), kvnet.ClientConfig{
		Retry: kvnet.NoRetry(), OpTimeout: 20 * time.Second,
	})
	if err != nil {
		return err
	}
	s.kv = s.cli
	return nil
}

// stopServer closes the client and the server and waits for Serve.
func (s *session) stopServer() {
	if s.cli != nil {
		s.cli.Close()
		s.cli = nil
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.serve
		s.srv = nil
	}
}

// close stops the server and closes a durable store, returning Close's
// error (which includes any failed background checkpoint).
func (s *session) close() error {
	s.stopServer()
	if s.dir == "" {
		return nil
	}
	return s.st.(aria.Durable).Close()
}

// remove deletes the session's data directory.
func (s *session) remove() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// diskBytes sums the size of every file under the data directory.
func (s *session) diskBytes() int64 {
	var n int64
	filepath.Walk(s.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// endChecks verifies the end-of-run properties on an open store.
func endChecks(st aria.Store, m *model) error {
	stats := st.Stats()
	var errs []error
	if stats.Keys != m.nLive {
		errs = append(errs, fmt.Errorf("Stats().Keys = %d, model has %d live keys", stats.Keys, m.nLive))
	}
	if err := st.VerifyIntegrity(); err != nil {
		errs = append(errs, fmt.Errorf("VerifyIntegrity: %w", err))
	}
	if h := stats.Health(); h != aria.HealthOK {
		errs = append(errs, fmt.Errorf("Health() = %s", h))
	}
	if stats.IntegrityFailures+stats.CASMismatches+stats.TxnConflicts != 0 {
		errs = append(errs, fmt.Errorf("integrity failures %d, CAS mismatches %d, txn conflicts %d",
			stats.IntegrityFailures, stats.CASMismatches, stats.TxnConflicts))
	}
	return errors.Join(errs...)
}

// compareAll reads every key id of the model back from st.
func compareAll(st aria.Store, m *model) error {
	r := newRunner(m, nil, nil)
	for id := range m.gen {
		v, err := st.Get(putKey(r.kbuf[0], id))
		if e := r.checkRead(id, v, err); e != nil {
			return e
		}
	}
	return nil
}

// reopen opens the durable lineage in dir again, as a restart would.
func reopen(w *workload, m *model, dir string) (aria.Store, error) {
	opts := w.options(dir)
	opts.Seed = m.seed
	return aria.Open(opts)
}
