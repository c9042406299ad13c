package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipette/internal/index"
	"pipette/internal/kv"
	"pipette/internal/report"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// kvMatrixTestScale shrinks the kv matrix so its 24 cells run in test time
// while still rotating segments, splitting B+-tree nodes, and flushing and
// merging LSM runs (the memtable floor is 256, so 2000 records flush 7
// runs over the load).
func kvMatrixTestScale() Scale {
	s := TinyScale()
	s.KVRecords = 2_000
	s.KVRequests = 1_200
	return s
}

// TestKVExperimentShapes runs the kv matrix at tiny scale and checks the
// paper's claim end-to-end: the same store over the fine-read path moves
// fewer device bytes per requested byte than over block I/O on the
// read-heavy small-value workloads — and the on-disk index engines behave
// like the structures they implement.
func TestKVExperimentShapes(t *testing.T) {
	t.Parallel()
	grid, err := RunKV(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hi, bi, li := kindIndex(index.Hash), kindIndex(index.BTree), kindIndex(index.LSM)
	for wi, wl := range kvWorkloads {
		blk, pip := grid[wi][0][hi], grid[wi][1][hi]
		if blk.keys != pip.keys {
			t.Errorf("YCSB-%s: engines diverge on final key count: %d vs %d", wl, blk.keys, pip.keys)
		}
		if blk.snap.Ops == 0 || pip.snap.Ops == 0 {
			t.Fatalf("YCSB-%s: no measured ops", wl)
		}
		if wl == "A" || wl == "B" || wl == "C" {
			if pip.snap.IO.FineReads == 0 {
				t.Errorf("YCSB-%s: Pipette engine served no fine reads", wl)
			}
			if pa, ba := pip.snap.IO.ReadAmplification(), blk.snap.IO.ReadAmplification(); pa >= ba {
				t.Errorf("YCSB-%s: Pipette read amp %.2f not below block I/O %.2f", wl, pa, ba)
			}
		}
		if blk.snap.IO.FineReads != 0 {
			t.Errorf("YCSB-%s: block engine reports fine reads", wl)
		}
		// The measured window's stage attribution must conserve for both
		// engines — mutation paths (Put, compaction) included.
		for ei, r := range []*kvCellResult{blk, pip} {
			if r.stages.Requests == 0 {
				t.Fatalf("YCSB-%s/%s: no stage-accounted ops", wl, kvEngines[ei])
			}
			if r.stages.Sum() != r.stages.Elapsed {
				t.Errorf("YCSB-%s/%s: stage sum %v != elapsed %v", wl, kvEngines[ei], r.stages.Sum(), r.stages.Elapsed)
			}
			if r.resources == nil {
				t.Fatalf("YCSB-%s/%s: no resource snapshot", wl, kvEngines[ei])
			}
		}

		// The index axis: every engine must agree with the hash cell on
		// contents, the tree must have split into a real hierarchy, and the
		// LSM must have flushed runs and pruned the absent-key probes.
		for ei := range kvEngines {
			bt, lsm := grid[wi][ei][bi], grid[wi][ei][li]
			if bt.keys != blk.keys || lsm.keys != blk.keys {
				t.Errorf("YCSB-%s: index engines diverge on key count: hash %d, btree %d, lsm %d",
					wl, blk.keys, bt.keys, lsm.keys)
			}
			if bt.idx.Height < 2 || bt.idx.Splits == 0 {
				t.Errorf("YCSB-%s/%s: btree never grew (height %d, %d splits)",
					wl, kvEngines[ei], bt.idx.Height, bt.idx.Splits)
			}
			if bt.idx.NodeReadsPerLookup() < 1 {
				t.Errorf("YCSB-%s/%s: btree lookups paid %.2f node reads each",
					wl, kvEngines[ei], bt.idx.NodeReadsPerLookup())
			}
			if lsm.idx.Flushes == 0 || lsm.idx.Runs == 0 {
				t.Errorf("YCSB-%s/%s: lsm never flushed (%d flushes, %d runs)",
					wl, kvEngines[ei], lsm.idx.Flushes, lsm.idx.Runs)
			}
			if lsm.idx.BloomNegative == 0 {
				t.Errorf("YCSB-%s/%s: bloom filters pruned nothing", wl, kvEngines[ei])
			}
			// FP fraction of all checks (BloomFPRate normalizes by the
			// maybes, which probe-only workloads like E drive to 1.0).
			if fp := float64(lsm.idx.BloomFalsePos) / float64(lsm.idx.BloomChecks); fp > 0.1 {
				t.Errorf("YCSB-%s/%s: bloom FP fraction %.2f", wl, kvEngines[ei], fp)
			}
		}

		// The second claim: absent-key probes through the on-disk indexes
		// move fewer device bytes over the fine path, which reads 512 B
		// nodes and blocks instead of 4 KiB pages. Bytes moved is the
		// robust form of the comparison — probe latency also depends on
		// which cache regime the scale lands each engine in, while read
		// amplification separates the paths at every scale.
		for _, ki := range []int{bi, li} {
			bb := grid[wi][0][ki].negBytes
			pb := grid[wi][1][ki].negBytes
			if pb >= bb {
				t.Errorf("YCSB-%s/%s: Pipette probes moved %d KB, not below block I/O's %d KB",
					wl, kvIndexKinds[ki], pb/1024, bb/1024)
			}
		}
	}
}

// TestKVMatrixDeterministicAcrossWorkers runs the kv matrix at -j 1 and
// -j 8 and requires the stdout tables, the export bundle, and the rendered
// report HTML to be byte-identical — the full engine × index grid must not
// leak host-scheduling order anywhere.
func TestKVMatrixDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	s := kvMatrixTestScale()
	dir := t.TempDir()
	outs := make([]bytes.Buffer, 2)
	exports := make([][]byte, 2)
	htmls := make([][]byte, 2)
	for i, workers := range []int{1, 8} {
		path := filepath.Join(dir, "kv.json")
		if err := WriteKV(&outs[i], s, TelemetryOpts{ExportOut: path}, NewPool(workers)); err != nil {
			t.Fatalf("-j %d: %v", workers, err)
		}
		var err error
		if exports[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		exp, err := report.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var h bytes.Buffer
		if err := report.WriteHTML(&h, "kv", []*report.Export{exp}); err != nil {
			t.Fatal(err)
		}
		htmls[i] = h.Bytes()
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("kv stdout differs between -j 1 and -j 8")
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("export bundle differs between -j 1 and -j 8")
	}
	if !bytes.Equal(htmls[0], htmls[1]) {
		t.Error("rendered HTML differs between -j 1 and -j 8")
	}

	out := outs[0].String()
	for _, want := range []string{"YCSB-A", "Compactions", "B+-tree index", "LSM index", "Bloom neg"} {
		if !strings.Contains(out, want) {
			t.Errorf("kv stdout misses %q", want)
		}
	}
	if !strings.Contains(string(htmls[0]), "KV index engines") {
		t.Errorf("kv report HTML misses the index summary table")
	}
	if !strings.Contains(string(exports[0]), "\"index\"") {
		t.Errorf("export bundle carries no index summaries")
	}
}

// TestKVStackFineStageAttribution drives fine Gets through a kv cell's
// stack and requires the fine path's own stages in the waterfall: the
// constructor's host work, and fine-cache hits once the cache holds
// values. Every request still partitions its latency exactly.
func TestKVStackFineStageAttribution(t *testing.T) {
	t.Parallel()
	s := kvMatrixTestScale()
	st, err := newKVStack(s, true)
	if err != nil {
		t.Fatal(err)
	}
	store, now, err := kv.Open(0, kv.VFSBackend{V: st.V}, kv.Config{
		SegmentBytes: kvSegmentBytes(s),
		FineReads:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var val []byte
	for k := uint64(0); k < s.KVRecords; k++ {
		val = kvValue(val, k, 0)
		if now, err = store.Put(now, kvKey(k), val); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = store.Sync(now); err != nil {
		t.Fatal(err)
	}
	st.Stages().SetOnFinish(func(segs []telemetry.StageSeg, from, to sim.Time) {
		at := from
		for _, seg := range segs {
			if seg.Start != at {
				t.Errorf("segment starts at %v, want %v", seg.Start, at)
			}
			at = seg.End
		}
		if at != to {
			t.Errorf("segments end at %v, want %v", at, to)
		}
	})
	var got []byte
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < s.KVRecords; k++ {
			st.Stages().Begin(now)
			got, now, err = store.Get(now, kvKey(k), got[:0])
			st.Stages().Finish(now)
			if err != nil {
				t.Fatalf("get %d: %v", k, err)
			}
			if val = kvValue(val, k, 0); !bytes.Equal(got, val) {
				t.Fatalf("get %d: wrong bytes", k)
			}
		}
	}

	if ss := st.Snapshot(""); ss.IO.FineReads == 0 || ss.FineCache.Hits == 0 {
		t.Fatalf("%d fine reads, %d fine-cache hits: the test misses the fine path",
			ss.IO.FineReads, ss.FineCache.Hits)
	}
	snap := st.Stages().Snapshot()
	if snap.Hists[telemetry.StageConstruct].Count() == 0 {
		t.Error("no requests attributed to construct")
	}
	if snap.Hists[telemetry.StageCache].Count() == 0 {
		t.Error("fine-cache hits but no requests attributed to cache")
	}
	if st.Stages().Gaps() != 0 || snap.Sum() != snap.Elapsed {
		t.Errorf("conservation: gaps %d, sum %v, elapsed %v", st.Stages().Gaps(), snap.Sum(), snap.Elapsed)
	}
}
