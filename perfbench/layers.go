package main

// The per-layer run (-trace 1). An untraced window gives the counts (the
// Stats() deltas, allocations, GC, checkpoint stalls) and the untraced
// slice times; a second, traced window on a fresh session gives the span
// times and reads the obs registry. Metrics of a layer the workload does
// not use read 0.

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"github.com/ariakv/aria/internal/compress"
	"github.com/ariakv/aria/internal/seccrypto"
)

func (b *bench) perLayer() error {
	w := b.w
	keys := newKeyPicker(w.keys, w.theta, b.seed)
	m := newModel(b.seed, w.keys, w.size, keys.ranks())

	cold := w.options("").ColdCompress

	// Untraced window: counts.
	s, r, err := b.setup(m, keys, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.timeStalls = cold
	a := b.measure(s, r)
	stallMs := float64(r.stallNs) / 1e6
	b.finish(s, r, a)
	attempted, failed := r.attempted, r.failed

	// Traced window, half as long: spans and the obs registry.
	b.secs /= 2
	tr := newTracer()
	s, r, err = b.setup(m, keys, tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	r.tr = tr
	t := b.measure(s, r)
	snap := s.reg.Snapshot()
	b.finish(s, r, t)
	attempted += r.attempted
	failed += r.failed
	spanFile := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, b.seed))
	if err := tr.write(spanFile); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	ops := float64(a.ops)
	per := func(x float64) float64 { return x / ops }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	dl := a.delta()

	for _, k := range []string{"get", "put", "mget", "mput", "cas", "txn", "ttl_put", "scan"} {
		b.set("aria."+k+"_us", "us", tr.meanUS(nAria[k]))
	}
	b.set("aria.allocs_per_op", "count", per(float64(a.ms1.Mallocs-a.ms0.Mallocs)))
	b.set("aria.alloc_b_per_op", "B", per(float64(a.ms1.TotalAlloc-a.ms0.TotalAlloc)))

	b.set("sgx.cyc_per_op", "cycles", per(float64(dl.SimCycles)))
	b.set("sgx.swaps_per_kop", "count", 1e3*per(float64(dl.PageSwaps)))
	b.set("sgx.ecalls_per_op", "count", per(float64(dl.Ecalls)))
	b.set("sgx.ocalls_per_op", "count", per(float64(dl.Ocalls)))
	b.set("sgx.batch_keys_per_entry", "count", ratio(float64(dl.BatchedKeys), float64(dl.Batches)))
	b.set("sgx.epc_used_mb", "MB", float64(a.after.EPCUsedBytes)/(1<<20))

	b.set("securecache.hit_ratio", "ratio", ratio(float64(dl.CacheHits), float64(dl.CacheHits+dl.CacheMisses)))
	b.set("securecache.misses_per_op", "count", per(float64(dl.CacheMisses)))

	mac, ctr := cryptoNS()
	b.set("seccrypto.macs_per_op", "count", per(float64(dl.MACs)))
	b.set("seccrypto.ctr_per_op", "count", per(float64(dl.CTROps)))
	b.set("seccrypto.mac64_ns", "ns", mac)
	b.set("seccrypto.ctr64_ns", "ns", ctr)

	b.set("wal.records_per_op", "count", per(float64(dl.WALRecords)))
	b.set("wal.bytes_per_user_b", "ratio", ratio(float64(dl.WALBytes), float64(a.userBytes)))
	b.set("wal.disk_b_per_key", "B", ratio(float64(a.diskB), float64(a.liveKeys)))
	b.set("wal.recover_s", "s", a.recoverS)

	b.set("cold.checkpoints", "count", float64(dl.Checkpoints))
	b.set("cold.compactions", "count", float64(dl.Compactions))
	b.set("cold.ckpt_ms", "ms", ratio(stallMs, float64(dl.Checkpoints)))
	b.set("cold.keys_frac", "ratio", ratio(float64(a.after.ColdKeys), float64(a.after.Keys)))
	b.set("cold.promotions_per_kop", "count", 1e3*per(float64(dl.ColdHits)))
	b.set("cold.comp_ratio", "ratio", ratio(float64(dl.CompBytes), float64(dl.CompRawBytes)))
	var cNS, dNS float64
	if cold {
		if cNS, dNS, err = compressNS(m); err != nil {
			return err
		}
	}
	b.set("cold.compress_ns_per_kb", "ns", cNS)
	b.set("cold.decompress_ns_per_kb", "ns", dNS)

	// kvnet: client span (rtt), the store spans under it, the server's
	// own service-time histogram, and wire bytes.
	var calls int
	var rtt, store int64
	for _, name := range nKvnet {
		st := tr.stats[name]
		calls += st.n
		rtt += st.total
		store += st.inKids
	}
	b.set("kvnet.rtt_us", "us", ratio(float64(rtt)/1e3, float64(calls)))
	b.set("kvnet.store_us", "us", ratio(float64(store)/1e3, float64(calls)))
	b.set("kvnet.self_us", "us", ratio(float64(rtt-store)/1e3, float64(calls)))
	service, wire := 0.0, 0.0
	if h, ok := snap.Histogram("kvnet_request_duration_ns", nil); ok {
		service = ratio(float64(h.Sum)/1e3, float64(h.Count))
	}
	if in, ok := snap.Value("kvnet_bytes_read_total", nil); ok {
		out, _ := snap.Value("kvnet_bytes_written_total", nil)
		wire = (in + out) / float64(t.ops)
	}
	b.set("kvnet.service_us", "us", service)
	b.set("kvnet.wire_b_per_op", "B", wire)

	imbalance := 0.0
	if len(a.shardCycles) > 0 {
		var total uint64
		for _, c := range a.shardCycles {
			total += c
		}
		imbalance = ratio(float64(slices.Max(a.shardCycles)), float64(total)/float64(len(a.shardCycles)))
	}
	b.set("shard.imbalance", "ratio", imbalance)
	b.set("shard.cross_txn_frac", "ratio", ratio(float64(a.crossTxn), float64(a.txns)))

	gcs := float64(a.ms1.NumGC - a.ms0.NumGC)
	b.set("runtime.gc_per_kop", "count", 1e3*per(gcs))
	b.set("runtime.gc_pause_us", "us", ratio(float64(a.ms1.PauseTotalNs-a.ms0.PauseTotalNs)/1e3, gcs))

	b.set("trace.overhead_pct", "%", overheadPct(a, t))
	b.res.Attempted, b.res.Failed = attempted, failed
	return nil
}

// overheadPct is the traced window's slowdown against the untraced one,
// in percent: the median over slice pairs of the traced slice's time over
// the untraced slice's. Both windows replay the seed's operation stream
// from a fresh set-up, so the i-th slices of the two hold the same
// operations; the median keeps one slice that a background checkpoint
// happened to stall longer from setting the figure.
func overheadPct(a, t *window) float64 {
	rs := make([]float64, min(len(a.slices), len(t.slices)))
	for i := range rs {
		rs[i] = t.slices[i].secs / a.slices[i].secs
	}
	slices.Sort(rs)
	return 100 * (rs[len(rs)/2] - 1)
}

// windowStats is the Stats() delta of a window for the monotonic
// counters (ResetStats zeroes the enclave's, but not the durability
// layer's).
type windowStats = struct {
	SimCycles, PageSwaps, Ecalls, Ocalls, MACs, CTROps uint64
	Batches, BatchedKeys, CacheHits, CacheMisses       uint64
	WALRecords, WALBytes, Checkpoints, Compactions     uint64
	ColdHits, CompRawBytes, CompBytes                  uint64
}

func (win *window) delta() *windowStats {
	x, y := win.before, win.after
	return &windowStats{
		SimCycles: y.SimCycles - x.SimCycles, PageSwaps: y.PageSwaps - x.PageSwaps,
		Ecalls: y.Ecalls - x.Ecalls, Ocalls: y.Ocalls - x.Ocalls,
		MACs: y.MACs - x.MACs, CTROps: y.CTROps - x.CTROps,
		Batches: y.Batches - x.Batches, BatchedKeys: y.BatchedKeys - x.BatchedKeys,
		CacheHits: y.CacheHits - x.CacheHits, CacheMisses: y.CacheMisses - x.CacheMisses,
		WALRecords: y.WALRecords - x.WALRecords, WALBytes: y.WALBytes - x.WALBytes,
		Checkpoints: y.Checkpoints - x.Checkpoints, Compactions: y.Compactions - x.Compactions,
		ColdHits: y.ColdHits - x.ColdHits, CompRawBytes: y.CompRawBytes - x.CompRawBytes,
		CompBytes: y.CompBytes - x.CompBytes,
	}
}

// medianNS times fn (n calls per batch) over several batches and returns
// the median per-call time in ns.
func medianNS(n int, fn func()) float64 {
	var per []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// cryptoNS times direct seccrypto calls on 64-byte inputs, the size of a
// skew-hot value.
func cryptoNS() (mac, ctr float64) {
	key := []byte("0123456789abcdef")
	c, err := seccrypto.New(key, key)
	if err != nil {
		return 0, 0
	}
	buf := make([]byte, 64)
	var out [16]byte
	block := seccrypto.CounterBlock(1, 2)
	mac = medianNS(20000, func() { c.MAC(&out, buf) })
	ctr = medianNS(20000, func() { c.CTRCrypt(&block, buf, buf) })
	return mac, ctr
}

// compressNS trains a dictionary on the run's current values, as a
// checkpoint does, and times compress.Dict calls over them, in ns per KB
// of raw value.
func compressNS(m *model) (comp, decomp float64, err error) {
	var vals [][]byte
	for id := 0; id < len(m.gen) && len(vals) < 2000; id++ {
		if m.live[id] {
			vals = append(vals, m.value(nil, id, m.gen[id]))
		}
	}
	var raw int
	for _, v := range vals {
		raw += len(v)
	}
	d := compress.Train(vals[:256])
	comps := make([][]byte, len(vals))
	buf := make([]byte, 0, 8192)
	comp = medianNS(1, func() {
		for i, v := range vals {
			buf = d.Compress(buf[:0], v)
			comps[i] = append(comps[i][:0], buf...)
		}
	})
	decomp = medianNS(1, func() {
		for i, c := range comps {
			if _, e := d.Decompress(c, len(vals[i])); e != nil && err == nil {
				err = fmt.Errorf("decompress: %w", e)
			}
		}
	})
	kb := float64(raw) / 1024
	return comp / kb, decomp / kb, err
}
