package main

import (
	"bytes"
	"errors"
	"fmt"

	"pipette"
	"pipette/internal/cluster"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
	"pipette/internal/workload"
)

// target is one assembled, loaded and warmed-up stack a workload measures.
type target interface {
	// do drives n generated requests through the stack, reporting each to
	// m and, when tr is not nil, recording host spans around every call.
	do(n int, m *meter, tr *recorder) error
	// counters snapshots the stack's cumulative counters.
	counters() counters
	// verify runs the checks that need the measured phase to be over.
	verify(m *meter) error
	// setTracer installs (or, with nil, removes) a virtual-time tracer and
	// reports whether the stack accepts one.
	setTracer(vt *virtTracer) bool
}

// phases sizes one workload's run: requests before measuring (part of
// set-up), the simulated window whose counts are reported, and the
// requests per host-timing window.
type phases struct {
	warmup, simOps, window int
}

// sizes holds every workload's dataset and cache sizes.
type sizes struct {
	embed embedSizes
	graph graphSizes
	kv    kvSizes
	tier  tierSizes
}

type embedSizes struct {
	tableBytes int64 // embedding tables, all 26 in one file
	fineCache  int   // fine-grained read cache (HMB data area)
	pageCache  int64
	capacity   int64
	phases
}

type graphSizes struct {
	nodes     uint64 // social-graph nodes; the file is nodes + edge runs
	fineCache int
	pageCache int64
	capacity  int64
	syncEvery int // requests between File.Sync calls
	phases
}

type kvSizes struct {
	records   int
	fineCache int
	pageCache int64
	capacity  int64
	syncEvery int   // requests between KV.Sync calls
	segment   int64 // value-log segment size
	phases
}

type tierSizes struct {
	records    uint64 // per tenant
	shardBytes int64  // per-shard dataset provisioning
	rate       float64
	depth      int
	maxQueue   int
	segment    int64 // each shard's value-log segment size
	phases
}

// Fixed workload parameters.
const (
	fileTickEvery = 8192 // embed-fine, graph-rw: requests between MaintenanceTick calls
	kvTickEvery   = 256  // kv-ycsb-a: requests between MaintenanceTick calls
	kvValueBytes  = 200  // kv-ycsb-a: every value's size
	sampleEvery   = 61   // every n-th request's read result is kept for the plain re-read
	maxSamples    = 4096 // the latest this many samples are kept
	tierShards    = 4
	tierReplicas  = 2
	tierTenants   = 2
	tierHedge     = 50 * sim.Microsecond
	tierBatch     = 4096 // arrivals per Replay call
)

// fullSizes are the sizes the benchmark command runs.
func fullSizes() sizes {
	return sizes{
		embed: embedSizes{tableBytes: 256 << 20, fineCache: 4 << 20, pageCache: 16 << 20, capacity: 512 << 20,
			phases: phases{warmup: 100_000, simOps: 6 * 65536, window: 65536}},
		graph: graphSizes{nodes: 1 << 18, fineCache: 4 << 20, pageCache: 8 << 20, capacity: 256 << 20, syncEvery: 1024,
			phases: phases{warmup: 50_000, simOps: 3 * 65536, window: 65536}},
		kv: kvSizes{records: 40_000, fineCache: 4 << 20, pageCache: 64 << 20, capacity: 256 << 20, syncEvery: 256, segment: 2 << 20,
			phases: phases{warmup: 10_000, simOps: 4 * 16384, window: 16384}},
		tier: tierSizes{records: 32768, shardBytes: 32 << 20, rate: 40_000, depth: 16, maxQueue: 4096, segment: 8 << 20,
			phases: phases{warmup: 2 * tierBatch, simOps: 2 * 32768, window: 32768}},
	}
}

// smallSizes keep a run under a second, for the package test.
func smallSizes() sizes {
	return sizes{
		embed: embedSizes{tableBytes: 16 << 20, fineCache: 1 << 20, pageCache: 4 << 20, capacity: 64 << 20,
			phases: phases{warmup: 2000, simOps: 12_000, window: 1000}},
		graph: graphSizes{nodes: 1 << 14, fineCache: 1 << 20, pageCache: 1 << 20, capacity: 64 << 20, syncEvery: 1024,
			phases: phases{warmup: 2000, simOps: 12_000, window: 1000}},
		kv: kvSizes{records: 4000, fineCache: 1 << 20, pageCache: 16 << 20, capacity: 64 << 20, syncEvery: 256, segment: 256 << 10,
			phases: phases{warmup: 1000, simOps: 6000, window: 500}},
		tier: tierSizes{records: 1024, shardBytes: 2 << 20, rate: 40_000, depth: 16, maxQueue: 4096, segment: 1 << 20,
			phases: phases{warmup: tierBatch, simOps: 2 * tierBatch, window: tierBatch}},
	}
}

// workloadSpec names a workload and builds its target.
type workloadSpec struct {
	name  string
	build func(sz sizes, seed uint64) (target, phases, error)
}

var workloads = []workloadSpec{
	{"embed-fine", buildEmbed},
	{"graph-rw", buildGraph},
	{"kv-ycsb-a", buildKV},
	{"tier-open", buildTier},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// mix is splitmix64's finalizer: the benchmark's own seed and payload
// stream, independent of the generators'.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes a deterministic byte stream derived from h into p.
func fill(p []byte, h uint64) {
	for i := 0; i < len(p); i += 8 {
		h = mix(h)
		for s := 0; s < 8 && i+s < len(p); s++ {
			p[i+s] = byte(h >> (8 * s))
		}
	}
}

// warm runs the warm-up requests; any failure there is a set-up error.
func warm(t target, n int) error {
	var m meter
	if err := t.do(n, &m, nil); err != nil {
		return err
	}
	if m.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", m.failed, m.attempted, m.problems)
	}
	return nil
}

// ---- embed-fine and graph-rw: one closed-loop client on a fine-grained file

// fileTarget drives a generated request stream against one file opened
// O_FINE_GRAINED, one request at a time.
type fileTarget struct {
	sys   *pipette.System
	f     *pipette.File // the O_FINE_GRAINED handle every request uses
	plain *pipette.File // a block-path handle for the independent re-read
	next  func() workload.Request

	buf     []byte
	payload []byte
	seed    uint64
	ops     uint64 // requests issued, warm-up included
	syncs   uint64 // requests between File.Sync calls (0 = never)

	// shadow is the expected content of a writable file: captured through
	// the plain handle at set-up, then updated by every write.
	shadow    []byte
	pageWrite []uint64 // per 4 KiB page: op number of its last write
	samples   []sample // ring of the latest fine-path read results
	nsamples  int
}

// sample is one fine-path read result kept for the plain re-read.
type sample struct {
	off  int64
	op   uint64
	data []byte
}

const pageBytes = 4096

func buildEmbed(sz sizes, seed uint64) (target, phases, error) {
	s := sz.embed
	cfg := workload.DefaultRecommenderConfig()
	cfg.TableBytes = s.tableBytes
	cfg.Seed = mix(seed ^ 0xe4bed)
	gen, err := workload.NewRecommender(cfg)
	if err != nil {
		return nil, s.phases, err
	}
	sys, err := pipette.New(pipette.Options{CapacityBytes: s.capacity, PageCacheBytes: s.pageCache, FineCacheBytes: s.fineCache})
	if err != nil {
		return nil, s.phases, err
	}
	t, err := openFileTarget(sys, "embeddings", gen.FileSize(), pipette.FineGrained, gen.Next, seed, false)
	if err != nil {
		return nil, s.phases, err
	}
	return t, s.phases, warm(t, s.warmup)
}

func buildGraph(sz sizes, seed uint64) (target, phases, error) {
	s := sz.graph
	cfg := workload.DefaultSocialGraphConfig()
	cfg.Nodes = s.nodes
	cfg.Seed = mix(seed ^ 0x9a4f)
	gen, err := workload.NewSocialGraph(cfg)
	if err != nil {
		return nil, s.phases, err
	}
	sys, err := pipette.New(pipette.Options{CapacityBytes: s.capacity, PageCacheBytes: s.pageCache, FineCacheBytes: s.fineCache})
	if err != nil {
		return nil, s.phases, err
	}
	t, err := openFileTarget(sys, "graph", gen.FileSize(), pipette.FineGrained|pipette.ReadWrite, gen.Next, seed, true)
	if err != nil {
		return nil, s.phases, err
	}
	t.syncs = uint64(s.syncEvery)
	return t, s.phases, warm(t, s.warmup)
}

func openFileTarget(sys *pipette.System, name string, size int64, flags pipette.OpenFlag,
	next func() workload.Request, seed uint64, writable bool) (*fileTarget, error) {
	if err := sys.CreateFile(name, size, true); err != nil {
		return nil, err
	}
	f, err := sys.Open(name, flags)
	if err != nil {
		return nil, err
	}
	plain, err := sys.Open(name, pipette.ReadOnly)
	if err != nil {
		return nil, err
	}
	t := &fileTarget{sys: sys, f: f, plain: plain, next: next, seed: seed,
		buf: make([]byte, 64<<10), payload: make([]byte, 64<<10)}
	if writable {
		t.shadow = make([]byte, size)
		for off := int64(0); off < size; off += int64(len(t.buf)) {
			chunk := t.shadow[off:min(size, off+int64(len(t.buf)))]
			if n, err := plain.ReadAt(chunk, off); err != nil || n != len(chunk) {
				return nil, fmt.Errorf("capture %s at %d: read %d of %d: %v", name, off, n, len(chunk), err)
			}
		}
		t.pageWrite = make([]uint64, (size+pageBytes-1)/pageBytes)
	}
	return t, nil
}

func (t *fileTarget) do(n int, m *meter, tr *recorder) error {
	for i := 0; i < n; i++ {
		tr.begin(spRequest)
		tr.begin(spNext)
		r := t.next()
		tr.end()
		t.ops++
		m.attempted++
		if r.Size > len(t.buf) {
			tr.end()
			return fmt.Errorf("request of %d bytes exceeds the %d-byte buffer", r.Size, len(t.buf))
		}
		start := t.sys.Now()
		if r.Write {
			p := t.payload[:r.Size]
			fill(p, t.seed^t.ops*0x2545f4914f6cdd1d)
			tr.begin(spWrite)
			k, err := t.f.WriteAt(p, r.Off)
			tr.end()
			if err != nil || k != len(p) {
				m.fail("write %d bytes at %d: wrote %d: %v", len(p), r.Off, k, err)
			} else {
				m.write(int64(t.sys.Now()-start), r.Size)
				copy(t.shadow[r.Off:], p)
				for pg := r.Off / pageBytes; pg <= (r.Off+int64(r.Size)-1)/pageBytes; pg++ {
					t.pageWrite[pg] = t.ops
				}
			}
		} else {
			b := t.buf[:r.Size]
			tr.begin(spRead)
			k, err := t.f.ReadAt(b, r.Off)
			tr.end()
			switch {
			case err != nil || k != len(b):
				m.fail("read %d bytes at %d: got %d: %v", len(b), r.Off, k, err)
			case t.shadow != nil && !bytes.Equal(b, t.shadow[r.Off:r.Off+int64(len(b))]):
				m.mismatch("read %d bytes at %d differs from the bytes written", len(b), r.Off)
			default:
				m.read(int64(t.sys.Now()-start), r.Size)
				if t.ops%sampleEvery == 0 {
					t.keep(r.Off, b)
				}
			}
		}
		tr.end()
		if t.ops%fileTickEvery == 0 {
			tr.begin(spTick)
			t.sys.MaintenanceTick()
			tr.end()
		}
		if t.syncs > 0 && t.ops%t.syncs == 0 {
			tr.begin(spSync)
			err := t.f.Sync()
			tr.end()
			if err != nil {
				return fmt.Errorf("sync: %w", err)
			}
		}
	}
	return nil
}

// verify re-reads the kept fine-path samples through the plain handle, and
// for a writable file compares the whole file with the shadow.
func (t *fileTarget) verify(m *meter) error {
	for _, s := range t.samples {
		if t.pageWrite != nil && t.writtenSince(s) {
			continue // a later write changed these bytes; the shadow check covers them
		}
		b := t.buf[:len(s.data)]
		k, err := t.plain.ReadAt(b, s.off)
		m.checked++
		if err != nil || k != len(b) {
			return fmt.Errorf("plain re-read %d bytes at %d: got %d: %v", len(b), s.off, k, err)
		}
		if !bytes.Equal(b, s.data) {
			m.mismatch("fine read of %d bytes at %d disagrees with the plain re-read", len(b), s.off)
		}
	}
	if t.shadow == nil {
		if m.checked == 0 {
			return errors.New("no fine-path result was kept for the plain re-read")
		}
		return nil
	}
	size := int64(len(t.shadow))
	for off := int64(0); off < size; off += int64(len(t.buf)) {
		b := t.buf[:min(size-off, int64(len(t.buf)))]
		k, err := t.plain.ReadAt(b, off)
		if err != nil || k != len(b) {
			return fmt.Errorf("plain re-read %d bytes at %d: got %d: %v", len(b), off, k, err)
		}
		if !bytes.Equal(b, t.shadow[off:off+int64(len(b))]) {
			m.mismatch("file bytes at %d differ from the bytes written", off)
		}
	}
	return nil
}

// keep stores a read result in a ring of the latest maxSamples, reusing
// the evicted sample's buffer.
func (t *fileTarget) keep(off int64, b []byte) {
	if len(t.samples) < maxSamples {
		t.samples = append(t.samples, sample{})
	}
	s := &t.samples[t.nsamples%maxSamples]
	s.off, s.op, s.data = off, t.ops, append(s.data[:0], b...)
	t.nsamples++
}

func (t *fileTarget) writtenSince(s sample) bool {
	for pg := s.off / pageBytes; pg <= (s.off+int64(len(s.data))-1)/pageBytes; pg++ {
		if t.pageWrite[pg] > s.op {
			return true
		}
	}
	return false
}

func (t *fileTarget) counters() counters { return systemCounters(t.sys) }

func (t *fileTarget) setTracer(vt *virtTracer) bool {
	t.sys.SetTracer(vt.orNil())
	return true
}

// ---- kv-ycsb-a: a B+-tree-indexed KV store under YCSB-A

type kvTarget struct {
	sys   *pipette.System
	kv    *pipette.KV
	gen   *workload.YCSB
	keys  []string
	vers  []uint32 // per key: version of the last value put
	seed  uint64
	val   []byte
	ops   uint64
	syncs uint64
}

// kvValue fills the kvValueBytes value of key k at version v. Values have
// one fixed size, as in YCSB, so the log grows by the same bytes per
// update whatever keys the seed makes hot.
func kvValue(buf []byte, seed uint64, k int, v uint32) []byte {
	buf = buf[:kvValueBytes]
	fill(buf, mix(seed^uint64(k)*0x9e3779b97f4a7c15)^uint64(v)<<40)
	return buf
}

func buildKV(sz sizes, seed uint64) (target, phases, error) {
	s := sz.kv
	sys, err := pipette.New(pipette.Options{CapacityBytes: s.capacity, PageCacheBytes: s.pageCache, FineCacheBytes: s.fineCache})
	if err != nil {
		return nil, s.phases, err
	}
	store, err := sys.OpenKV(pipette.KVOptions{Index: "btree", SegmentBytes: s.segment})
	if err != nil {
		return nil, s.phases, err
	}
	ycfg, err := workload.StandardYCSB("A", uint64(s.records), mix(seed^0x1c5b))
	if err != nil {
		return nil, s.phases, err
	}
	gen, err := workload.NewYCSB(ycfg)
	if err != nil {
		return nil, s.phases, err
	}
	t := &kvTarget{sys: sys, kv: store, gen: gen, seed: seed, syncs: uint64(s.syncEvery),
		keys: make([]string, s.records), vers: make([]uint32, s.records), val: make([]byte, kvValueBytes)}
	for k := range t.keys {
		t.keys[k] = fmt.Sprintf("user%010d", k)
		if err := store.Put(t.keys[k], kvValue(t.val, seed, k, 0)); err != nil {
			return nil, s.phases, fmt.Errorf("load %s: %w", t.keys[k], err)
		}
	}
	if err := store.Sync(); err != nil {
		return nil, s.phases, fmt.Errorf("load sync: %w", err)
	}
	return t, s.phases, warm(t, s.warmup)
}

func (t *kvTarget) do(n int, m *meter, tr *recorder) error {
	for i := 0; i < n; i++ {
		tr.begin(spRequest)
		tr.begin(spNext)
		r := t.gen.Next()
		tr.end()
		t.ops++
		m.attempted++
		k := int(r.Key)
		if k >= len(t.keys) {
			tr.end()
			return fmt.Errorf("YCSB-A drew key %d outside the %d loaded records", k, len(t.keys))
		}
		start := t.sys.Now()
		switch r.Op {
		case workload.OpRead:
			tr.begin(spRead)
			got, err := t.kv.Get(t.keys[k])
			tr.end()
			want := kvValue(t.val, t.seed, k, t.vers[k])
			switch {
			case err != nil:
				m.fail("get %s: %v", t.keys[k], err)
			case !bytes.Equal(got, want):
				m.mismatch("get %s returned %d bytes that differ from the %d put", t.keys[k], len(got), len(want))
			default:
				m.read(int64(t.sys.Now()-start), len(got))
			}
		case workload.OpUpdate:
			t.vers[k]++
			v := kvValue(t.val, t.seed, k, t.vers[k])
			tr.begin(spWrite)
			err := t.kv.Put(t.keys[k], v)
			tr.end()
			if err != nil {
				m.fail("put %s: %v", t.keys[k], err)
			} else {
				m.write(int64(t.sys.Now()-start), len(v))
			}
		default:
			tr.end()
			return fmt.Errorf("YCSB-A drew a %v operation", r.Op)
		}
		tr.end()
		if t.ops%kvTickEvery == 0 {
			tr.begin(spTick)
			t.sys.MaintenanceTick()
			tr.end()
		}
		if t.ops%t.syncs == 0 {
			tr.begin(spSync)
			err := t.kv.Sync()
			tr.end()
			if err != nil {
				return fmt.Errorf("kv sync: %w", err)
			}
		}
	}
	return nil
}

// verify needs nothing after the run: every Get was checked against the
// shadow versions as it returned.
func (t *kvTarget) verify(*meter) error { return nil }

func (t *kvTarget) counters() counters {
	c := systemCounters(t.sys)
	st, ix := t.kv.Stats(), t.kv.IndexStats()
	c.kvPuts, c.kvGets, c.kvLogBytes = st.Puts, st.Gets, st.BytesWritten
	c.kvCompactions, c.kvMoved = st.Compactions, st.MovedBytes
	c.idxLookups, c.idxNodeReads, c.idxBytesRead, c.idxSplits = ix.Lookups, ix.NodeReads, ix.BytesRead, ix.Splits
	return c
}

func (t *kvTarget) setTracer(vt *virtTracer) bool {
	t.sys.SetTracer(vt.orNil())
	return true
}

// ---- tier-open: a sharded, replicated tier under open-loop arrivals

type tierTarget struct {
	c    *cluster.Cluster
	mt   *workload.MultiTenant
	arr  *workload.Poisson
	keys [][]string // per tenant, per record
	seed uint64
	val  []byte
	ops  uint64

	// next's context for the batch in flight.
	m  *meter
	tr *recorder

	led tierLedger // cumulative over every replay
}

// tierLedger sums the cluster Result ledgers.
type tierLedger struct {
	arrived, admitted, rejected, throttled, lost uint64
	hedges, failovers, replicaWrites             uint64
	primary                                      [tierShards]uint64
	virt                                         int64 // summed replay elapsed
}

// tierValue fills record rec of tenant ten at write number v: 64..512 bytes,
// sized by the record alone.
func tierValue(buf []byte, seed uint64, ten int, rec uint64, v uint64) []byte {
	h := mix(seed ^ uint64(ten)<<56 ^ rec*0x9e3779b97f4a7c15)
	buf = buf[:64+h%449]
	fill(buf, h^v<<32)
	return buf
}

func buildTier(sz sizes, seed uint64) (target, phases, error) {
	s := sz.tier
	c, err := cluster.New(cluster.Config{
		Shards: tierShards, Replicas: tierReplicas, Tenants: tierTenants,
		Depth: s.depth, MaxQueue: s.maxQueue,
		ReadPolicy: cluster.ReadHedged, HedgeDelay: tierHedge,
	}, func(int) cluster.ShardConfig {
		return cluster.ShardConfig{DatasetBytes: s.shardBytes, FineReads: true, SegmentBytes: s.segment}
	})
	if err != nil {
		return nil, s.phases, err
	}
	t := &tierTarget{c: c, seed: seed, val: make([]byte, 512), keys: make([][]string, tierTenants)}
	for ten := range t.keys {
		t.keys[ten] = make([]string, s.records)
		for rec := range t.keys[ten] {
			t.keys[ten][rec] = fmt.Sprintf("t%d/user%08d", ten, rec)
			if err := c.Load(t.keys[ten][rec], tierValue(t.val, seed, ten, uint64(rec), 0)); err != nil {
				return nil, s.phases, err
			}
		}
	}
	if _, err := c.SealLoad(); err != nil {
		return nil, s.phases, err
	}
	// Tenant 0 offers three times tenant 1's load; both key with Zipf 0.99.
	t.mt, err = workload.NewMultiTenant(s.records, []workload.TenantConfig{
		{Weight: 3, Theta: 0.99, ReadFraction: 0.95},
		{Weight: 1, Theta: 0.99, ReadFraction: 0.95},
	}, mix(seed^0x7e0a))
	if err != nil {
		return nil, s.phases, err
	}
	if t.arr, err = workload.NewPoisson(s.rate, mix(seed^0xc1a5)); err != nil {
		return nil, s.phases, err
	}
	return t, s.phases, warm(t, s.warmup)
}

func (t *tierTarget) next() cluster.Request {
	t.tr.begin(spNext)
	r := t.mt.Next()
	t.tr.end()
	t.ops++
	req := cluster.Request{Tenant: r.Tenant, Write: r.Write, Key: t.keys[r.Tenant][r.Record]}
	v := tierValue(t.val, t.seed, r.Tenant, r.Record, t.ops)
	if r.Write {
		req.Val = v
	}
	if t.m.record {
		if r.Write {
			t.m.writeBytes += uint64(len(v))
		} else {
			t.m.readBytes += uint64(len(v))
		}
	}
	return req
}

// do replays n arrivals as open-loop batches of tierBatch, each starting
// at the tier's frontier.
func (t *tierTarget) do(n int, m *meter, tr *recorder) error {
	for ; n > 0; n -= tierBatch {
		if err := t.replay(min(n, tierBatch), m, tr); err != nil {
			return err
		}
	}
	return nil
}

// replay runs one batch. Its tail recorder keeps every request, which is
// how the exact per-request latencies are read (the Result histogram is
// log2-bucketed).
func (t *tierTarget) replay(n int, m *meter, tr *recorder) error {
	t.m, t.tr = m, tr
	tail := telemetry.NewTailRecorder(n, n)
	tr.begin(spRequest)
	tr.begin(spReplay)
	res, err := t.c.Replay(t.next, n, cluster.ReplayOpts{
		Arrivals: t.arr, Start: t.c.Now(), Tail: tail,
	})
	tr.end()
	tr.end()
	if err != nil {
		return err
	}
	if res.Arrived != res.Admitted+res.Rejected+res.Throttled {
		m.mismatch("ledger: arrived %d != admitted %d + rejected %d + throttled %d",
			res.Arrived, res.Admitted, res.Rejected, res.Throttled)
	}
	m.attempted += res.Arrived
	if bad := res.Rejected + res.Throttled + res.Lost; bad > 0 {
		m.failed += bad
		m.problem("replay: %d rejected, %d throttled, %d lost of %d", res.Rejected, res.Throttled, res.Lost, res.Arrived)
	}
	if m.record {
		if snap := tail.Snapshot(); snap != nil {
			for i := range snap.TopK {
				m.readLat = append(m.readLat, int64(snap.TopK[i].Latency()))
			}
		}
	}
	l := &t.led
	l.arrived += res.Arrived
	l.admitted += res.Admitted
	l.rejected += res.Rejected
	l.throttled += res.Throttled
	l.lost += res.Lost
	l.virt += int64(res.Elapsed)
	for i, ss := range res.Shards {
		l.hedges += ss.Hedges
		l.failovers += ss.Failovers
		l.replicaWrites += ss.ReplicaWrites
		l.primary[i] += ss.Primary
	}
	return nil
}

func (t *tierTarget) verify(*meter) error { return nil }

func (t *tierTarget) counters() counters {
	c := counters{virt: t.led.virt, tier: t.led}
	for i := 0; i < tierShards; i++ {
		sh := t.c.Shard(i)
		snap := sh.Snapshot()
		c.addIO(snap.IO)
		c.pcHits += snap.PageCache.Hits
		c.pcAccesses += snap.PageCache.Accesses
		c.pcEvictions += snap.PageCache.Evictions
		c.fineHits += snap.FineCache.Hits
		c.fineAccesses += snap.FineCache.Accesses
		c.addStages(sh.SA.Snapshot())
		for j := 0; j < sh.Res.Len(); j++ {
			tl := sh.Res.At(j)
			c.res = append(c.res, resBusy{shard: i, name: tl.Name(), busy: int64(tl.Busy())})
		}
	}
	return c
}

// setTracer: the tier API exposes no tracer hook, so tier-open records
// host spans and the CPU profile only.
func (t *tierTarget) setTracer(*virtTracer) bool { return false }
