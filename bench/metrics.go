package main

import (
	"math"
	"slices"
	"strings"

	"overshadow/internal/sim"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names and units.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics: what producing the paper's
// answer costs the user of the simulator, in host time and memory.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcyc_per_s", "Mcyc/s"},
	{"world_ms_p50", "ms"},
	{"world_ms_p90", "ms"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Counts are deterministic per
// seed; *_ns are layer probes; *_est_pct are count x probe as a share of
// run time; *_sim_pct are shares of simulated cycles; span metrics come
// from the traced pass.
var perLayer = []metricDef{
	{"sim.mcycles", "Mcyc"},
	{"sim.cloak_overhead_pct", "%"},
	{"core.new_system_ms", "ms"},
	{"sim.charge_events", "count"},
	{"sim.charge_ns", "ns"},
	{"sim.charge_est_pct", "%"},
	{"mmu.tlb_hits", "count"},
	{"mmu.tlb_misses", "count"},
	{"mmu.tlb_hit_ratio", "ratio"},
	{"mmu.tlb_lookup_ns", "ns"},
	{"mmu.est_pct", "%"},
	{"vmm.translate_hit_ns", "ns"},
	{"vmm.translate_miss_ns", "ns"},
	{"vmm.trap_rt_ns", "ns"},
	{"vmm.world_switches", "count"},
	{"vmm.hidden_faults", "count"},
	{"vmm.shadow_fills", "count"},
	{"vmm.sim_pct", "%"},
	{"cloak.encrypts", "count"},
	{"cloak.decrypts", "count"},
	{"cloak.encrypt_ns", "ns"},
	{"cloak.decrypt_ns", "ns"},
	{"cloak.meta_get_ns", "ns"},
	{"cloak.metacache_hit_ratio", "ratio"},
	{"cloak.est_pct", "%"},
	{"cloak.sim_pct", "%"},
	{"guestos.syscalls", "count"},
	{"guestos.context_switches", "count"},
	{"guestos.swap_outs", "count"},
	{"guestos.swap_ins", "count"},
	{"guestos.null_ns", "ns"},
	{"guestos.load64_ns", "ns"},
	{"guestos.pipe_rtt_ns", "ns"},
	{"guestos.fork_ns", "ns"},
	{"guestos.sim_pct", "%"},
	{"shim.syscalls", "count"},
	{"shim.marshal_mb", "MB"},
	{"shim.null_ns", "ns"},
	{"shim.load64_ns", "ns"},
	{"shim.pipe_rtt_ns", "ns"},
	{"shim.fork_ns", "ns"},
	{"shim.sim_pct", "%"},
	{"mach.disk_reads", "count"},
	{"mach.disk_writes", "count"},
	{"mach.disk_read_ns", "ns"},
	{"mach.disk_write_ns", "ns"},
	{"mach.page_zeros", "count"},
	{"mach.est_pct", "%"},
	{"persist.appends", "count"},
	{"persist.checkpoints", "count"},
	{"persist.put_ns", "ns"},
	{"persist.checkpoint_ns", "ns"},
	{"persist.replay_accepted", "count"},
	{"persist.reboot_span_pct", "%"},
	{"persist.est_pct", "%"},
	{"migrate.captures", "count"},
	{"migrate.pages", "count"},
	{"migrate.blob_mb", "MB"},
	{"migrate.capture_span_pct", "%"},
	{"migrate.restore_span_pct", "%"},
	{"migrate.encode_ns_page", "ns"},
	{"migrate.decode_ns_page", "ns"},
	{"migrate.est_pct", "%"},
	{"unattributed_pct", "%"},
	{"env.mem_self_ms", "ms"},
	{"env.syscall_self_ms", "ms"},
	{"env.process_self_ms", "ms"},
	{"env.compute_self_ms", "ms"},
	{"env.spans_dropped", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.metrics_overhead_pct", "%"},
	{"host.ref_ns", "ns"},
}

// median of v (v is reordered).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// nearestRank is the q-quantile of v by nearest rank (v is reordered): at
// q = 0.9 over 120 samples, 12 samples lie beyond it.
func nearestRank(v []float64, q float64) float64 {
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// chargeEvents estimates the calls into the charge path: one per event of
// every sim.Stats counter except the two that count volume (marshalled
// bytes, and cache lines of memory traffic, which a bulk copy charges in
// one call), plus one per app memory access.
func chargeEvents(stats map[sim.Counter]uint64, memOps uint64) uint64 {
	n := memOps
	for k, v := range stats {
		if k != sim.CtrShimMarshalBytes && k != sim.CtrMemAccess {
			n += v
		}
	}
	return n
}

// simLayer maps an attributed cycle counter to the layer that charges it.
func simLayer(counter string) string {
	switch {
	case strings.HasPrefix(counter, "vmm."), counter == string(sim.CtrTrap), counter == string(sim.CtrPageZero):
		return "vmm"
	case strings.HasPrefix(counter, "cloak."):
		return "cloak"
	case strings.HasPrefix(counter, "os."), counter == string(sim.CtrPageCopy), counter == string(sim.CtrIdle):
		return "guestos"
	case strings.HasPrefix(counter, "shim."):
		return "shim"
	}
	return ""
}
