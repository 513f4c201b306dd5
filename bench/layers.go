package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"overshadow/internal/sim"
)

// layers is the traced run: layer probes, untraced passes for the run-time
// base, one pass with attributed cycle accounting (World.EnableMetrics)
// and one traced pass. End-to-end metrics never come from here.
func (b *bench) layers(traceOut string, log io.Writer) (result, error) {
	b.warmUp()
	probes, err := runProbes(b.cfg.probeScale)
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	plain := []pass{b.runPass(nil, false)}
	metered := b.runPass(nil, true)
	tr := newTracer()
	traced := b.runPass(tr, false)
	for time.Since(start).Seconds() < b.cfg.seconds && len(plain) < b.cfg.maxPasses {
		plain = append(plain, b.runPass(nil, false))
	}

	// Shares of run time compare raw probe times with raw run times; the
	// observer overheads compare passes at the reference host speed.
	var scaledWorld, runNS, refNS []float64
	for _, p := range plain {
		w, r := p.hostNS()
		scaledWorld = append(scaledWorld, w*p.scale())
		runNS = append(runNS, r)
		refNS = append(refNS, float64(p.refNS)/float64(len(p.res)))
	}
	baseWorld, baseRun := median(scaledWorld), median(runNS)
	pct := func(ns float64) float64 { return 100 * ratio(ns, baseRun) }

	st := b.sumStats()
	c := func(k sim.Counter) float64 { return float64(st[k]) }
	v := make(map[string]float64, len(perLayer))
	for k, x := range probes {
		v[k] = x
	}

	var cycles, native, cloaked float64
	for i, r := range b.ref {
		cycles += float64(r.cycles)
		if w := b.worlds[i]; w.pair >= 0 {
			if w.cloaked {
				cloaked += float64(r.cycles)
			} else {
				native += float64(r.cycles)
			}
		}
	}
	v["sim.mcycles"] = cycles / 1e6
	v["sim.cloak_overhead_pct"] = 100 * ratio(cloaked-native, native)

	setups := make([]float64, len(b.worlds))
	for i := range b.worlds {
		per := make([]float64, len(plain))
		for j, p := range plain {
			per[j] = float64(p.res[i].setupNS) / 1e6
		}
		setups[i] = median(per)
	}
	v["core.new_system_ms"] = median(setups)

	var memOps uint64
	for _, r := range b.ref {
		memOps += r.memOps
	}
	events := float64(chargeEvents(st, memOps))
	v["sim.charge_events"] = events
	v["sim.charge_est_pct"] = pct(events * probes["sim.charge_ns"])

	v["mmu.tlb_hits"] = c(sim.CtrTLBHit)
	v["mmu.tlb_misses"] = c(sim.CtrTLBMiss)
	v["mmu.tlb_hit_ratio"] = ratio(c(sim.CtrTLBHit), c(sim.CtrTLBHit)+c(sim.CtrTLBMiss))
	v["mmu.est_pct"] = pct((c(sim.CtrTLBHit) + c(sim.CtrTLBMiss)) * probes["mmu.tlb_lookup_ns"])

	v["vmm.world_switches"] = c(sim.CtrWorldSwitch)
	v["vmm.hidden_faults"] = c(sim.CtrHiddenFault)
	v["vmm.shadow_fills"] = c(sim.CtrShadowFill)

	metaGets := c(sim.CtrMetaCacheHit) + c(sim.CtrMetaCacheMiss)
	v["cloak.encrypts"] = c(sim.CtrPageEncrypt)
	v["cloak.decrypts"] = c(sim.CtrPageDecrypt)
	v["cloak.metacache_hit_ratio"] = ratio(c(sim.CtrMetaCacheHit), metaGets)
	v["cloak.est_pct"] = pct(c(sim.CtrPageEncrypt)*probes["cloak.encrypt_ns"] +
		c(sim.CtrPageDecrypt)*probes["cloak.decrypt_ns"] + metaGets*probes["cloak.meta_get_ns"])

	v["guestos.syscalls"] = c(sim.CtrSyscall)
	v["guestos.context_switches"] = c(sim.CtrContextSwitch)
	v["guestos.swap_outs"] = c(sim.CtrPageOut)
	v["guestos.swap_ins"] = c(sim.CtrPageIn)
	v["shim.syscalls"] = c(sim.CtrShimSyscall)
	v["shim.marshal_mb"] = c(sim.CtrShimMarshalBytes) / 1e6

	v["mach.disk_reads"] = c(sim.CtrDiskRead)
	v["mach.disk_writes"] = c(sim.CtrDiskWrite)
	v["mach.page_zeros"] = c(sim.CtrPageZero)
	v["mach.est_pct"] = pct(c(sim.CtrDiskRead)*probes["mach.disk_read_ns"] + c(sim.CtrDiskWrite)*probes["mach.disk_write_ns"])

	v["persist.appends"] = c(sim.CtrJournalAppend)
	v["persist.checkpoints"] = c(sim.CtrJournalCheckpoint)
	v["persist.replay_accepted"] = c(sim.CtrReplayAccepted)
	v["persist.est_pct"] = pct(c(sim.CtrJournalAppend)*probes["persist.put_ns"] +
		c(sim.CtrJournalCheckpoint)*probes["persist.checkpoint_ns"])

	var captures, blob float64
	for _, r := range b.ref {
		captures += float64(r.captures)
		blob += float64(r.blobBytes)
	}
	v["migrate.captures"] = captures
	v["migrate.pages"] = c(sim.CtrMigrateCkptPage)
	v["migrate.blob_mb"] = blob / 1e6
	v["migrate.est_pct"] = pct(c(sim.CtrMigrateCkptPage) * (probes["migrate.encode_ns_page"] + probes["migrate.decode_ns_page"]))

	v["unattributed_pct"] = 100 - v["sim.charge_est_pct"] - v["mmu.est_pct"] - v["cloak.est_pct"] -
		v["mach.est_pct"] - v["persist.est_pct"] - v["migrate.est_pct"]

	bySim := make(map[string]float64)
	var attributed float64
	for _, r := range metered.res {
		for name, cyc := range r.simByCounter {
			bySim[simLayer(name)] += float64(cyc)
			attributed += float64(cyc)
		}
	}
	for _, layer := range []string{"vmm", "cloak", "guestos", "shim"} {
		v[layer+".sim_pct"] = 100 * ratio(bySim[layer], attributed)
	}

	worldTotal := float64(tr.agg[spanWorld].total)
	spanPct := func(k spanKind) float64 { return 100 * ratio(float64(tr.agg[k].total), worldTotal) }
	v["migrate.capture_span_pct"] = spanPct(spanMigrate)
	v["migrate.restore_span_pct"] = spanPct(spanRestore)
	v["persist.reboot_span_pct"] = spanPct(spanReboot)
	for cat, ms := range tr.catSelf() {
		v["env."+cat+"_self_ms"] = ms
	}
	v["env.spans_dropped"] = float64(tr.dropped)

	tracedNS, _ := traced.hostNS()
	meteredNS, _ := metered.hostNS()
	v["obs.trace_overhead_pct"] = 100 * ratio(tracedNS*traced.scale()-baseWorld, baseWorld)
	v["obs.metrics_overhead_pct"] = 100 * ratio(meteredNS*metered.scale()-baseWorld, baseWorld)
	v["host.ref_ns"] = median(refNS)

	tr.writeTable(log, b.spec.name)
	if traceOut != "" {
		if err := writeFile(traceOut, func(w io.Writer) error { return tr.writeChrome(w, b.spec.name) }); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
	}
	return b.outcome(emit(perLayer, v)), nil
}

// hostNS sums the pass's world times and its run times (world minus set-up).
func (p pass) hostNS() (world, run float64) {
	for _, r := range p.res {
		world += float64(r.worldNS)
		run += float64(r.worldNS - r.setupNS)
	}
	return world, run
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
