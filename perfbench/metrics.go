package main

import (
	"strings"

	"ferrum/internal/obs"
)

// layerMetrics assembles a traced iteration's per-layer metrics, by the
// names BENCHMARK.json declares; a layer the workload leaves idle reads 0.
// Timings come from the benchmark's spans; campaign-wide counts (plans,
// outcomes, checkpoint activity, dispatch, detection latency) from the
// program's own obs registry, which sees every campaign including
// journal-answered ones; ledgers and cache counts from public results.
// probe adds engine throughput the workload does not expose itself.
func (it *iteration) layerMetrics(probe map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{
		"harness.builds", "harness.cache_build_hits", "harness.cache_golden_hits", "harness.cache_golden_misses",
		"fi.plans_executed", "prune.executed", "prune.dead", "prune.masked", "prune.deduped",
		"compose.sections", "compose.fallbacks", "compose.plans_served", "journal.bytes", "journal.records",
	} {
		out[k] = it.counts[k]
	}
	for _, k := range []string{
		"harness.exp.table2_s", "harness.exp.profile_s", "harness.exp.fig11_s", "harness.exp.exectime_s",
		"harness.exp.variation_s", "fi.campaign_s", "ir.campaign_s", "prune.campaign_s",
		"compose.cold_s", "compose.warm_s", "journal.write_s", "journal.resume_s",
	} {
		out[k] = it.times[k]
	}
	out["harness.build_s"] = it.tr.sum("build")
	out["harness.render_ms"] = it.times["harness.render_s"] * 1e3
	out["journal.load_ms"] = it.times["journal.load_s"] * 1e3
	out["harness.cells"] = float64(it.attempted)
	out["harness.cell_p50_ms"] = quantile(it.walls, 0.5)
	out["harness.cell_p90_ms"] = quantile(it.walls, 0.9)
	out["fi.us_per_executed_plan"] = 0
	if n := it.counts["fi.plans_executed"]; n > 0 {
		out["fi.us_per_executed_plan"] = it.times["fi.campaign_s"] * 1e6 / n
	}

	tc := it.traceCounts
	out["fi.plans"] = tc[obs.MPlans]
	out["fi.restores"] = tc[obs.MCkptRestores]
	out["fi.cold_starts"] = tc[obs.MCkptColdStarts]
	out["fi.skipped_minsts"] = tc[obs.MCkptSkippedInsts] / 1e6
	out["fi.snapshot_kib"] = tc[obs.MCkptBytes] / 1024
	for _, o := range outcomes {
		out["fi.outcome."+o.String()] = tc[obs.MOutcomePrefix+o.String()]
	}
	var postFault float64
	for k, v := range tc {
		if strings.HasPrefix(k, obs.MDetectLatencyPrefix+"cycles.") && strings.HasSuffix(k, ".sum") {
			postFault += v
		}
	}
	out["fi.post_fault_mcycles"] = postFault / 1e6
	out["machine.blocks_entered"] = tc[obs.MBlocksEntered]
	out["machine.fused_uops"] = tc[obs.MFusedUops]

	for _, tech := range []string{"raw", "ferrum", "hybrid-assembly-level-eddi"} {
		key := "machine.minsts_per_s." + strings.TrimSuffix(tech, "-assembly-level-eddi")
		out[key] = 0
		if s := it.times["machine.golden_s."+tech]; s > 0 {
			out[key] = it.counts["machine.golden_insts."+tech] / s / 1e6
		}
	}
	out["ir.minsts_per_s"] = 0
	for k, v := range probe {
		out[k] = v
	}
	out["go.alloc_mb"] = it.allocMB
	out["go.gc_cycles"] = float64(it.gcCycles)
	return out
}
