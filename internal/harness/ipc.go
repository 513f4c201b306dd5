package harness

import (
	"overshadow/internal/core"
	"overshadow/internal/mach"
)

// RunE11 (extension experiment): compares the two ways cloaked processes
// can exchange protected data — a pipe (every byte marshalled through the
// uncloaked scratch region twice, plus kernel transport) versus protected
// shared memory (plain stores and loads under one vault identity; the
// kernel only ever holds ciphertext). The pipe is the paper-era mechanism;
// protected shm is this reproduction's extension and shows what the vault
// identity machinery buys.
func RunE11(opts Options) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Protected IPC between cloaked processes: KiB per Mcycle",
		Columns: []string{"KiB/Mcyc", "Mcycles"},
	}
	totalKB := opts.scale(4096, 512)
	chunk := 16 * 1024

	cfg := core.Config{MemoryPages: 4096, Seed: opts.seed(), VCPUs: opts.VCPUs}
	cyc := sweep(opts, []macroRun{
		{cfg, "pipeipc", func() core.Program { return pipeIPCProgram(totalKB, chunk) }, true},
		{cfg, "shmipc", func() core.Program { return shmIPCProgram(totalKB, chunk) }, true},
	}, runCycles)
	pipeCycles, shmCycles := cyc[0], cyc[1]

	t.AddRow("pipe (marshalled)", float64(totalKB)/mcyc(pipeCycles), mcyc(pipeCycles))
	t.AddRow("protected shm", float64(totalKB)/mcyc(shmCycles), mcyc(shmCycles))
	t.Note("both paths keep the payload invisible to the kernel; shm avoids double marshalling and transport")
	return t
}

func pipeIPCProgram(totalKB, chunk int) core.Program {
	return func(e core.Env) {
		rfd, wfd, err := e.Pipe()
		if err != nil {
			e.Exit(1)
		}
		pid, err := e.Fork(func(c core.Env) {
			must(c.Close(rfd))
			buf := must1(c.Alloc(chunk/mach.PageSize + 1))
			payload := make([]byte, chunk)
			for i := range payload {
				payload[i] = byte(i)
			}
			c.WriteMem(buf, payload)
			sent := 0
			for sent < totalKB*1024 {
				off := 0
				for off < chunk {
					n, err := c.Write(wfd, buf+mach.Addr(off), chunk-off)
					if err != nil {
						c.Exit(1)
					}
					off += n
				}
				sent += chunk
			}
			must(c.Close(wfd))
			c.Exit(0)
		})
		if err != nil {
			e.Exit(1)
		}
		must(e.Close(wfd))
		buf := must1(e.Alloc(chunk/mach.PageSize + 1))
		for {
			n, err := e.Read(rfd, buf, chunk)
			if err != nil {
				e.Exit(1)
			}
			if n == 0 {
				break
			}
			e.Compute(uint64(n) / 64)
		}
		must2(e.WaitPid(pid))
		e.Exit(0)
	}
}

func shmIPCProgram(totalKB, chunk int) core.Program {
	ringPages := chunk/mach.PageSize + 2 // slot + control words
	return func(e core.Env) {
		base, err := e.ShmAttach("e11ring", ringPages)
		if err != nil {
			e.Exit(1)
		}
		// Layout: [0]=seq written, [8]=seq consumed, page 1.. = data slot.
		data := base + mach.Addr(mach.PageSize)
		rounds := totalKB * 1024 / chunk
		pid, err := e.Fork(func(c core.Env) {
			payload := make([]byte, chunk)
			for i := range payload {
				payload[i] = byte(i)
			}
			for r := 1; r <= rounds; r++ {
				for c.Load64(base+8) != uint64(r-1) { // wait for consumer
					c.Yield()
				}
				c.WriteMem(data, payload)
				c.Store64(base, uint64(r))
			}
			c.Exit(0)
		})
		if err != nil {
			e.Exit(1)
		}
		for r := 1; r <= rounds; r++ {
			for e.Load64(base) != uint64(r) {
				e.Yield()
			}
			e.Compute(uint64(chunk) / 64)
			e.Store64(base+8, uint64(r))
		}
		must2(e.WaitPid(pid))
		e.Exit(0)
	}
}
