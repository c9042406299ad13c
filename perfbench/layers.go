package main

import (
	"fmt"
	"strings"

	"pipette/internal/telemetry"
)

// layerMetrics computes the per-layer metrics of a traced run. Counts and
// virtual-time figures cover the simulated window (ph.simOps requests);
// host-time figures cover the traced phase (tr.ops requests).
func layerMetrics(name string, ph phases, m *meter, c0, c1 *counters, tr *traceResult) []metric {
	ops := float64(ph.simOps)
	perOp := func(a, b uint64) float64 { return float64(b-a) / ops }
	frac := func(a, b uint64) float64 { return ratio(a, b) }
	stage := func(s telemetry.Stage) float64 { return float64(c1.stageTotals[s]-c0.stageTotals[s]) / ops }
	util := utilizations(c0, c1)
	hostOps := tr.ops
	self := func(group string) float64 { return float64(tr.prof.self[group]) / float64(hostOps) }
	mean := func(s spanName) float64 { return ratio(tr.agg[s].TotalNs, tr.agg[s].N) }
	isKV := name == "kv-ycsb-a"
	kvMean := func(s spanName) float64 {
		if !isKV {
			return 0
		}
		return mean(s)
	}
	dl := func(f func(l *tierLedger) uint64) uint64 { return f(&c1.tier) - f(&c0.tier) }
	arrived := dl(func(l *tierLedger) uint64 { return l.arrived })

	latSum := sumNs(m.readLat) + sumNs(m.writeLat)
	var stageSum int64
	for i := range c1.stageTotals {
		stageSum += c1.stageTotals[i] - c0.stageTotals[i]
	}

	var hot, primaries uint64
	for i := range c1.tier.primary {
		p := c1.tier.primary[i] - c0.tier.primary[i]
		primaries += p
		hot = max(hot, p)
	}

	sim, host := ph.simOps, hostOps
	spans := func(s spanName) int { return int(tr.agg[s].N) }
	ms := []metric{
		{"workload.host_ns_per_op", "ns", float64(tr.agg[spNext].TotalNs) / float64(hostOps), spans(spNext), "timed generator Next calls"},
		{"api.host_ns_per_read", "ns", mean(spRead), spans(spRead), "timed File.ReadAt / KV.Get"},
		{"api.host_ns_per_write", "ns", mean(spWrite), spans(spWrite), "timed File.WriteAt / KV.Put"},
		{"api.host_ns_per_tick", "ns", mean(spTick), spans(spTick), "timed System.MaintenanceTick"},
		{"vfs.host_self_ns_per_op", "ns", self("vfs"), host, "CPU profile, vfs + extfs"},
		{"stage.syscall_ns_per_op", "ns", stage(telemetry.StageSyscall), sim, "virtual"},
		{"stage.copyout_ns_per_op", "ns", stage(telemetry.StageCopyout), sim, "virtual"},
		{"pagecache.hit_ratio", "ratio", frac(c1.pcHits-c0.pcHits, c1.pcAccesses-c0.pcAccesses), int(c1.pcAccesses - c0.pcAccesses), "page-cache lookups"},
		{"pagecache.evictions_per_op", "count", perOp(c0.pcEvictions, c1.pcEvictions), sim, ""},
		{"pagecache.host_self_ns_per_op", "ns", self("pagecache"), host, "CPU profile"},
		{"stage.cache_ns_per_op", "ns", stage(telemetry.StageCache), sim, "virtual"},
		{"core.fine_hit_ratio", "ratio", frac(c1.fineHits-c0.fineHits, c1.fineAccesses-c0.fineAccesses), int(c1.fineAccesses - c0.fineAccesses), "fine-cache lookups"},
		{"core.fine_reads_per_op", "count", perOp(c0.fineReads, c1.fineReads), sim, "reads taken by the fine path"},
		{"core.temp_bypass_frac", "ratio", frac(c1.tempBypasses-c0.tempBypasses, c1.fineReads-c0.fineReads), int(c1.fineReads - c0.fineReads), "fine misses served via TempBuf"},
		{"core.invalidations_per_op", "count", perOp(c0.invalidations, c1.invalidations), sim, "fine-cache items deleted by writes"},
		{"core.threshold", "count", float64(c1.threshold), 1, "adaptive admission threshold at the window's end"},
		{"core.host_self_ns_per_op", "ns", self("core"), host, "CPU profile, core + hmb + slab"},
		{"stage.construct_ns_per_op", "ns", stage(telemetry.StageConstruct), sim, "virtual"},
		{"blockdev.block_reads_per_op", "count", perOp(c0.blockReads, c1.blockReads), sim, "block read commands"},
		{"blockdev.host_self_ns_per_op", "ns", self("blockdev"), host, "CPU profile"},
		{"nvme.cmds_per_op", "count", float64(c1.blockReads+c1.fineCmds+c1.writeCmds-c0.blockReads-c0.fineCmds-c0.writeCmds) / ops, sim, "block + fine + write commands"},
		{"nvme.ring_util", "ratio", util.max("nvme.ring"), util.n, "busiest shard's ring"},
		{"nvme.host_self_ns_per_op", "ns", self("nvme"), host, "CPU profile"},
		{"stage.ring_ns_per_op", "ns", stage(telemetry.StageRing), sim, "virtual"},
		{"stage.queue_ns_per_op", "ns", stage(telemetry.StageQueue), sim, "virtual"},
		{"ssd.pcie_util", "ratio", util.max("pcie.dma"), util.n, "busiest shard's DMA link"},
		{"ssd.host_self_ns_per_op", "ns", self("ssd"), host, "CPU profile"},
		{"stage.firmware_ns_per_op", "ns", stage(telemetry.StageFirmware), sim, "virtual"},
		{"stage.dma_ns_per_op", "ns", stage(telemetry.StageDMA), sim, "virtual"},
		{"ftl.host_self_ns_per_op", "ns", self("ftl"), host, "CPU profile"},
		{"stage.program_ns_per_op", "ns", stage(telemetry.StageProgram), sim, "virtual"},
		{"stage.writeback_ns_per_op", "ns", stage(telemetry.StageWriteback), sim, "virtual"},
		{"nand.channel_util_max", "ratio", util.channelMax, util.n, "busiest NAND channel"},
		{"nand.die_util_max", "ratio", util.dieMax, util.n, "busiest NAND die"},
		{"nand.host_self_ns_per_op", "ns", self("nand"), host, "CPU profile"},
		{"stage.nand_ns_per_op", "ns", stage(telemetry.StageNAND), sim, "virtual"},
		{"kv.host_ns_per_get", "ns", kvMean(spRead), spans(spRead), "timed KV.Get (0 off kv-ycsb-a)"},
		{"kv.host_ns_per_put", "ns", kvMean(spWrite), spans(spWrite), "timed KV.Put (0 off kv-ycsb-a)"},
		{"kv.log_bytes_per_put", "B", frac(c1.kvLogBytes-c0.kvLogBytes, c1.kvPuts-c0.kvPuts), int(c1.kvPuts - c0.kvPuts), "log appends incl. compaction rewrites"},
		{"kv.compactions", "count", float64(c1.kvCompactions - c0.kvCompactions), sim, "segments compacted in the window"},
		{"kv.moved_bytes_per_op", "B", perOp(c0.kvMoved, c1.kvMoved), sim, "live bytes compaction re-appended"},
		{"kv.host_self_ns_per_op", "ns", self("kv"), host, "CPU profile"},
		{"index.node_reads_per_lookup", "count", frac(c1.idxNodeReads-c0.idxNodeReads, c1.idxLookups-c0.idxLookups), int(c1.idxLookups - c0.idxLookups), "B+-tree node reads"},
		{"index.bytes_read_per_lookup", "B", frac(c1.idxBytesRead-c0.idxBytesRead, c1.idxLookups-c0.idxLookups), int(c1.idxLookups - c0.idxLookups), ""},
		{"index.splits", "count", float64(c1.idxSplits - c0.idxSplits), sim, "node splits in the window"},
		{"index.host_self_ns_per_op", "ns", self("index"), host, "CPU profile"},
		{"cluster.hedges_per_op", "count", frac(dl(func(l *tierLedger) uint64 { return l.hedges }), arrived), int(arrived), "hedge reads per arrival"},
		{"cluster.failovers", "count", float64(dl(func(l *tierLedger) uint64 { return l.failovers })), int(arrived), "failover reads in the window"},
		{"cluster.replica_writes_per_op", "count", frac(dl(func(l *tierLedger) uint64 { return l.replicaWrites }), arrived), int(arrived), "secondary copies per arrival"},
		{"cluster.rejected_frac", "ratio", frac(dl(func(l *tierLedger) uint64 { return l.rejected }), arrived), int(arrived), "bounced off a full shard FIFO"},
		{"cluster.throttled_frac", "ratio", frac(dl(func(l *tierLedger) uint64 { return l.throttled }), arrived), int(arrived), "bounced by a tenant token bucket"},
		{"cluster.hot_shard_share", "ratio", frac(hot, primaries), int(primaries), "busiest shard's share of primary routings"},
		{"cluster.shard_util_max", "ratio", util.shardMax, util.n, "busiest shard's mean NAND channel utilization"},
		{"cluster.host_self_ns_per_op", "ns", self("cluster"), host, "CPU profile"},
		{"sim.host_self_ns_per_op", "ns", self("sim"), host, "CPU profile, event engine"},
		{"instruments.host_self_ns_per_op", "ns", self("instruments"), host, "CPU profile, telemetry + resource + metrics"},
		{"runtime.malloc_ns_per_op", "ns", self("runtime.malloc"), host, "CPU profile, mallocgc"},
		{"runtime.gc_ns_per_op", "ns", self("runtime.gc"), host, "CPU profile, GC workers and assists"},
		{"runtime.gc_cycles", "count", float64(tr.gcCycles), host, "GC cycles in the traced phase"},
		{"trace.overhead_frac", "ratio", 1 - median(normRates(tr.traced))/median(normRates(tr.untraced)), len(tr.traced),
			fmt.Sprintf("1 - traced/untraced host_ops_per_s (%d vs %d windows)", len(tr.traced), len(tr.untraced))},
		{"trace.unaccounted_frac", "ratio", 1 - float64(tr.prof.mainNs)/float64(tr.wallNs), host,
			"traced wall time the benchmark goroutine's profile samples do not cover"},
		{"stage.requests_per_op", "count", perOp(c0.stageReqs, c1.stageReqs), sim, "stage-account requests per request (1.0 reconciles)"},
		{"stage.sum_over_latency", "ratio", ratio(stageSum, latSum), sim, "summed stage ns / summed measured latency (1.0 reconciles)"},
	}
	return ms
}

// utilSet is the resource utilizations over a window.
type utilSet struct {
	byName                       map[string]float64 // max over shards
	channelMax, dieMax, shardMax float64
	n                            int // resources
}

func (u utilSet) max(name string) float64 { return u.byName[name] }

func utilizations(c0, c1 *counters) utilSet {
	u := utilSet{byName: make(map[string]float64), n: len(c1.res)}
	virt := float64(c1.virt - c0.virt)
	if virt <= 0 || len(c0.res) != len(c1.res) {
		return u
	}
	chSum := make(map[int]float64)
	chN := make(map[int]int)
	for i, r := range c1.res {
		x := float64(r.busy-c0.res[i].busy) / virt
		u.byName[r.name] = max(u.byName[r.name], x)
		if !strings.HasPrefix(r.name, "nand.ch") {
			continue
		}
		if strings.Contains(r.name, ".w") {
			u.dieMax = max(u.dieMax, x)
		} else {
			u.channelMax = max(u.channelMax, x)
			chSum[r.shard] += x
			chN[r.shard]++
		}
	}
	for s, sum := range chSum {
		u.shardMax = max(u.shardMax, sum/float64(chN[s]))
	}
	return u
}
