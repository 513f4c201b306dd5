package workload

import (
	"overshadow/internal/guestos"
	"overshadow/internal/mach"
)

// KVConfig parameterizes the key-value service macro workload (experiment
// E12): a memcached-style server process answers get/put requests over
// pipes, keeping its table in (optionally protected) memory and
// persisting it to a file at shutdown. This models the paper-era "protect
// the data-handling server from its own OS" scenario end to end.
type KVConfig struct {
	Ops        int // total operations the client issues
	ValueBytes int // value size
	Keys       int // distinct keys (cycled)
	PutRatio   int // percentage of ops that are puts (rest gets)
	Persist    bool
}

const kvSlot = 256 // fixed slot: 2B key index + 2B value length + value

// KVProgram builds the combined client+server body. Protocol over the
// request pipe: 1B op ('P'/'G'/'Q'), 2B key index, and for puts 2B length +
// value. Reply: 2B length (0 = miss) + value.
func KVProgram(cfg KVConfig) guestos.Program {
	if cfg.ValueBytes > kvSlot-4 {
		panic("workload: KV value exceeds slot")
	}
	return func(e guestos.Env) {
		reqR, reqW, err := e.Pipe()
		if err != nil {
			e.Exit(1)
		}
		repR, repW, err := e.Pipe()
		if err != nil {
			e.Exit(1)
		}
		pid, err := e.Fork(func(c guestos.Env) {
			must(c.Close(reqR))
			must(c.Close(repW))
			kvClient(c, cfg, reqW, repR)
		})
		if err != nil {
			e.Exit(1)
		}
		must(e.Close(reqW))
		must(e.Close(repR))
		kvServe(e, cfg, reqR, repW)
		if _, status := must2(e.WaitPid(pid)); status != 0 {
			e.Exit(1)
		}
		e.Exit(0)
	}
}

func kvWriteFull(e guestos.Env, fd int, va mach.Addr, n int) bool {
	off := 0
	for off < n {
		m, err := e.Write(fd, va+mach.Addr(off), n-off)
		if err != nil {
			return false
		}
		off += m
	}
	return true
}

func kvServe(e guestos.Env, cfg KVConfig, reqR, repW int) {
	tablePages := (cfg.Keys*kvSlot + mach.PageSize - 1) / mach.PageSize
	table, err := e.Alloc(tablePages + 1)
	if err != nil {
		e.Exit(1)
	}
	io, err := e.Alloc(1)
	if err != nil {
		e.Exit(1)
	}
	hdr := make([]byte, 5)
	for {
		if !readFull(e, reqR, io, 1) {
			e.Exit(1)
		}
		e.ReadMem(io, hdr[:1])
		op := hdr[0]
		if op == 'Q' {
			break
		}
		if !readFull(e, reqR, io, 2) {
			e.Exit(1)
		}
		e.ReadMem(io, hdr[:2])
		key := int(hdr[0]) | int(hdr[1])<<8
		slot := table + mach.Addr(key*kvSlot)
		switch op {
		case 'P':
			if !readFull(e, reqR, io, 2) {
				e.Exit(1)
			}
			e.ReadMem(io, hdr[:2])
			vlen := int(hdr[0]) | int(hdr[1])<<8
			if !readFull(e, reqR, io, vlen) {
				e.Exit(1)
			}
			val := make([]byte, vlen)
			e.ReadMem(io, val)
			rec := append([]byte{byte(vlen), byte(vlen >> 8)}, val...)
			e.WriteMem(slot, rec)
			e.WriteMem(io, []byte{1, 0})
			if !kvWriteFull(e, repW, io, 2) {
				e.Exit(1)
			}
		case 'G':
			lenb := make([]byte, 2)
			e.ReadMem(slot, lenb)
			vlen := int(lenb[0]) | int(lenb[1])<<8
			rep := make([]byte, 2+vlen)
			copy(rep, lenb)
			if vlen > 0 {
				val := make([]byte, vlen)
				e.ReadMem(slot+2, val)
				copy(rep[2:], val)
			}
			e.WriteMem(io, rep)
			if !kvWriteFull(e, repW, io, len(rep)) {
				e.Exit(1)
			}
		}
		e.Compute(500) // request parsing / hashing
	}
	if cfg.Persist {
		fd, err := e.Open("/kv-snapshot", guestos.OCreate|guestos.OWrOnly|guestos.OTrunc)
		if err != nil {
			e.Exit(1)
		}
		if _, err := e.Write(fd, table, cfg.Keys*kvSlot); err != nil {
			e.Exit(1)
		}
		must(e.Close(fd))
	}
	must(e.Close(reqR))
	must(e.Close(repW))
}

func kvClient(e guestos.Env, cfg KVConfig, reqW, repR int) {
	io, err := e.Alloc(1)
	if err != nil {
		e.Exit(1)
	}
	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte(i*13 + 7)
	}
	written := make([]bool, cfg.Keys)
	x := uint64(0x243F6A8885A308D3)
	for op := 0; op < cfg.Ops; op++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := int(x>>33) % cfg.Keys
		doPut := int(x%100) < cfg.PutRatio || !written[key]
		if doPut {
			msg := []byte{'P', byte(key), byte(key >> 8),
				byte(cfg.ValueBytes), byte(cfg.ValueBytes >> 8)}
			msg = append(msg, val...)
			e.WriteMem(io, msg)
			if !kvWriteFull(e, reqW, io, len(msg)) {
				e.Exit(1)
			}
			if !readFull(e, repR, io, 2) {
				e.Exit(1)
			}
			written[key] = true
		} else {
			msg := []byte{'G', byte(key), byte(key >> 8)}
			e.WriteMem(io, msg)
			if !kvWriteFull(e, reqW, io, len(msg)) {
				e.Exit(1)
			}
			if !readFull(e, repR, io, 2) {
				e.Exit(1)
			}
			hdr := make([]byte, 2)
			e.ReadMem(io, hdr)
			vlen := int(hdr[0]) | int(hdr[1])<<8
			if vlen != cfg.ValueBytes {
				e.Exit(3) // wrong answer from the store
			}
			if !readFull(e, repR, io, vlen) {
				e.Exit(1)
			}
			got := make([]byte, vlen)
			e.ReadMem(io, got)
			for i := range got {
				if got[i] != val[i] {
					e.Exit(3)
				}
			}
		}
	}
	e.WriteMem(io, []byte{'Q'})
	kvWriteFull(e, reqW, io, 1)
	must(e.Close(reqW))
	must(e.Close(repR))
	e.Exit(0)
}
