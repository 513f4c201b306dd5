package harness

import (
	"fmt"

	"overshadow/internal/core"
	"overshadow/internal/workload"
)

// RunE12 measures the key-value service (memcached-class, the kind of
// data-handling server the paper's introduction motivates protecting)
// native vs cloaked, across value sizes.
func RunE12(opts Options) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Key-value service: ops per Mcycle vs value size",
		Columns: []string{"native ops/Mcyc", "cloaked ops/Mcyc", "overhead %"},
	}
	ops := opts.scale(600, 80)
	sizes := []int{64, 252}
	var runs []macroRun
	for _, vs := range sizes {
		cfg := workload.KVConfig{
			Ops: ops, ValueBytes: vs, Keys: 32, PutRatio: 30, Persist: true,
		}
		sysCfg := core.Config{MemoryPages: 4096, Seed: opts.seed(), VCPUs: opts.VCPUs}
		runs = append(runs, pair(sysCfg, "kv", func() core.Program { return workload.KVProgram(cfg) })...)
	}
	cyc := sweep(opts, runs, runCycles)
	for i, vs := range sizes {
		nat, clo := cyc[2*i], cyc[2*i+1]
		t.AddRow(fmt.Sprintf("value %dB", vs), thrput(ops, nat), thrput(ops, clo), pct(clo, nat))
	}
	t.Note("per op: pipe round trip (marshalled both sides when cloaked) + protected table access")
	return t
}
