package cluster

import (
	"bytes"
	"testing"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// shardGets reads every loaded record of a one-tenant cluster passes times
// straight through shard 0's store, one stage scope per Get as the replay
// opens them, and fails on any value that differs from what was loaded.
func shardGets(t *testing.T, c *Cluster, start sim.Time, records uint64, passes int) {
	t.Helper()
	sh := c.Shard(0)
	now := start
	var buf []byte
	var err error
	wrong := 0
	for pass := 0; pass < passes; pass++ {
		for rec := uint64(0); rec < records; rec++ {
			sh.Stages().Begin(now)
			buf, now, err = sh.Store.Get(now, testKey(0, rec), buf[:0])
			sh.Stages().Finish(now)
			if err != nil {
				t.Fatalf("get record %d: %v", rec, err)
			}
			if !bytes.Equal(buf, testVal(0, rec)) {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d Gets returned wrong bytes", wrong, uint64(passes)*records)
	}
}

// A faulted fine-read shard must validate its fine path on the host: the
// injector armed at SealLoad reaches the core, so every corrupted HMB ring
// record or DMA payload is caught and re-served through block I/O instead
// of being returned as data.
func TestShardFaultsReachFinePath(t *testing.T) {
	t.Parallel()
	const records = 2048
	for _, tc := range []struct {
		profile   string
		fallbacks func(sh *Shard) uint64
	}{
		{"nvme.dma:1", func(sh *Shard) uint64 { return sh.Faults().DMAFallbacks }},
		{"hmb.ring:1", func(sh *Shard) uint64 { return sh.Faults().RingFallbacks }},
	} {
		tc := tc
		t.Run(tc.profile, func(t *testing.T) {
			t.Parallel()
			c, start := buildTestCluster(t, testClusterOpts{
				cfg:     Config{Shards: 1, Replicas: 1, Tenants: 1},
				records: records,
				fault:   tc.profile,
			})
			shardGets(t, c, start, records, 2)
			sh := c.Shard(0)
			if f := sh.Faults(); f.Injected == 0 {
				t.Errorf("no faults injected: %+v", f)
			}
			if n := tc.fallbacks(sh); n == 0 {
				t.Errorf("no fine-path fallbacks under %s: %+v", tc.profile, sh.Faults())
			}
		})
	}
}

// Fine Gets on a shard must attribute the fine path's own stages: the
// constructor's host work on every fine read, and fine-cache hits once the
// cache holds values. Every request still partitions its latency exactly.
func TestShardFineStageAttribution(t *testing.T) {
	t.Parallel()
	const records = 2048
	c, start := buildTestCluster(t, testClusterOpts{
		cfg:     Config{Shards: 1, Replicas: 1, Tenants: 1},
		records: records,
	})
	sh := c.Shard(0)
	sh.Stages().SetOnFinish(func(segs []telemetry.StageSeg, from, to sim.Time) {
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
	shardGets(t, c, start, records, 2)

	if ss := sh.Snapshot(); ss.IO.FineReads == 0 || ss.FineCache.Hits == 0 {
		t.Fatalf("%d fine reads, %d fine-cache hits: the test misses the fine path",
			ss.IO.FineReads, ss.FineCache.Hits)
	}
	snap := sh.Stages().Snapshot()
	if snap.Hists[telemetry.StageConstruct].Count() == 0 {
		t.Error("no requests attributed to construct")
	}
	if snap.Hists[telemetry.StageCache].Count() == 0 {
		t.Error("fine-cache hits but no requests attributed to cache")
	}
	if sh.Stages().Gaps() != 0 || snap.Sum() != snap.Elapsed {
		t.Errorf("conservation: gaps %d, sum %v, elapsed %v", sh.Stages().Gaps(), snap.Sum(), snap.Elapsed)
	}
}
