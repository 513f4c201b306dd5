// Package workload provides the synthetic application programs used by the
// experiments: CPU-bound kernels standing in for SPEC-style benchmarks, a
// web-server request loop, file-I/O scans, a compile-like process mix, and
// a paging-pressure sweep. Every program is written against guestos.Env, so
// the identical body runs natively or cloaked — which is exactly the
// comparison the paper's evaluation makes.
package workload

import (
	"fmt"

	"overshadow/internal/guestos"
	"overshadow/internal/mach"
)

// CPUKernel names one of the SPEC-like compute kernels.
type CPUKernel string

// The CPU-bound kernel suite (experiment E3). Working sets and access
// patterns differ so cloaking costs (page-granularity crypto at kernel
// interactions) can be related to memory behavior.
const (
	KernelIntSort      CPUKernel = "intsort"     // quicksort over simulated memory
	KernelMatMul       CPUKernel = "matmul"      // dense matrix multiply
	KernelPointerChase CPUKernel = "ptrchase"    // dependent loads, TLB-hostile
	KernelChecksum     CPUKernel = "checksum"    // streaming reduction
	KernelRLE          CPUKernel = "rle"         // compress-like byte scan
	KernelPureCompute  CPUKernel = "purecompute" // ALU only, no memory traffic
)

// AllCPUKernels lists the suite in canonical order.
func AllCPUKernels() []CPUKernel {
	return []CPUKernel{KernelIntSort, KernelMatMul, KernelPointerChase,
		KernelChecksum, KernelRLE, KernelPureCompute}
}

// CPUConfig parameterizes a CPU kernel run.
type CPUConfig struct {
	Kernel      CPUKernel
	WorkingSetK int // working set in KiB
	Iters       int // repetitions of the kernel
}

// CPUProgram builds the program body for a kernel configuration.
func CPUProgram(cfg CPUConfig) guestos.Program {
	switch cfg.Kernel {
	case KernelIntSort:
		return intSortProgram(cfg)
	case KernelMatMul:
		return matMulProgram(cfg)
	case KernelPointerChase:
		return pointerChaseProgram(cfg)
	case KernelChecksum:
		return checksumProgram(cfg)
	case KernelRLE:
		return rleProgram(cfg)
	case KernelPureCompute:
		return pureComputeProgram(cfg)
	}
	panic(fmt.Sprintf("workload: unknown kernel %q", cfg.Kernel))
}

func pagesFor(kib int) int {
	p := kib * 1024 / mach.PageSize
	if p < 1 {
		p = 1
	}
	return p
}

// intSortProgram sorts a pseudo-random array in simulated memory with
// iterative quicksort, charging compute per comparison.
func intSortProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		n := cfg.WorkingSetK * 1024 / 8
		base, err := e.Alloc(pagesFor(cfg.WorkingSetK))
		if err != nil {
			e.Exit(1)
		}
		for it := 0; it < cfg.Iters; it++ {
			// Fill with a deterministic pseudo-random pattern.
			x := uint64(88172645463325252 + it)
			for i := 0; i < n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				e.Store64(base+mach.Addr(i*8), x)
			}
			quicksortSim(e, base, 0, n-1)
			// Verify sortedness (and charge the scan).
			prev := e.Load64(base)
			for i := 1; i < n; i++ {
				v := e.Load64(base + mach.Addr(i*8))
				if v < prev {
					e.Exit(2)
				}
				prev = v
				e.Compute(1)
			}
		}
		e.Exit(0)
	}
}

func quicksortSim(e guestos.Env, base mach.Addr, lo, hi int) {
	type span struct{ lo, hi int }
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.lo >= s.hi {
			continue
		}
		// Insertion sort for small spans.
		if s.hi-s.lo < 16 {
			for i := s.lo + 1; i <= s.hi; i++ {
				v := e.Load64(base + mach.Addr(i*8))
				j := i - 1
				for j >= s.lo {
					u := e.Load64(base + mach.Addr(j*8))
					e.Compute(1)
					if u <= v {
						break
					}
					e.Store64(base+mach.Addr((j+1)*8), u)
					j--
				}
				e.Store64(base+mach.Addr((j+1)*8), v)
			}
			continue
		}
		p := e.Load64(base + mach.Addr(((s.lo+s.hi)/2)*8))
		i, j := s.lo, s.hi
		for i <= j {
			for e.Load64(base+mach.Addr(i*8)) < p {
				i++
				e.Compute(1)
			}
			for e.Load64(base+mach.Addr(j*8)) > p {
				j--
				e.Compute(1)
			}
			if i <= j {
				vi := e.Load64(base + mach.Addr(i*8))
				vj := e.Load64(base + mach.Addr(j*8))
				e.Store64(base+mach.Addr(i*8), vj)
				e.Store64(base+mach.Addr(j*8), vi)
				i++
				j--
			}
		}
		stack = append(stack, span{s.lo, j}, span{i, s.hi})
	}
}

// matMulProgram multiplies two dense square matrices.
func matMulProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		// Three n×n uint64 matrices inside the working set.
		n := 8
		for (3*(n*2)*(n*2))*8 <= cfg.WorkingSetK*1024 {
			n *= 2
		}
		a, err := e.Alloc(pagesFor(n * n * 8 / 1024))
		if err != nil {
			e.Exit(1)
		}
		b, err := e.Alloc(pagesFor(n * n * 8 / 1024))
		if err != nil {
			e.Exit(1)
		}
		c, err := e.Alloc(pagesFor(n * n * 8 / 1024))
		if err != nil {
			e.Exit(1)
		}
		for i := 0; i < n*n; i++ {
			e.Store64(a+mach.Addr(i*8), uint64(i%97))
			e.Store64(b+mach.Addr(i*8), uint64(i%89))
		}
		for it := 0; it < cfg.Iters; it++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var sum uint64
					for k := 0; k < n; k++ {
						av := e.Load64(a + mach.Addr((i*n+k)*8))
						bv := e.Load64(b + mach.Addr((k*n+j)*8))
						sum += av * bv
						e.Compute(1)
					}
					e.Store64(c+mach.Addr((i*n+j)*8), sum)
				}
			}
		}
		e.Exit(0)
	}
}

// pointerChaseProgram builds a random cyclic permutation and chases it —
// one dependent load per step, maximal TLB pressure.
func pointerChaseProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		n := cfg.WorkingSetK * 1024 / 8
		base, err := e.Alloc(pagesFor(cfg.WorkingSetK))
		if err != nil {
			e.Exit(1)
		}
		// Sattolo's algorithm for a single cycle, using a local PRNG. The
		// permutation is host memory only until it is stored, so it takes 4
		// bytes an index: n counts the 8-byte words of a working set that
		// Alloc fitted in the 4 GiB user space, so every index fits.
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		x := uint64(2463534242)
		for i := n - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			j := int(x % uint64(i))
			idx[i], idx[j] = idx[j], idx[i]
		}
		for i := 0; i < n; i++ {
			e.Store64(base+mach.Addr(i*8), uint64(idx[i]))
		}
		steps := cfg.Iters * n
		cur := uint64(0)
		for s := 0; s < steps; s++ {
			cur = e.Load64(base + mach.Addr(cur*8))
			e.Compute(1)
		}
		e.Exit(0)
	}
}

// checksumProgram streams over the working set computing a rolling sum.
func checksumProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		bytes := cfg.WorkingSetK * 1024
		base, err := e.Alloc(pagesFor(cfg.WorkingSetK))
		if err != nil {
			e.Exit(1)
		}
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		for off := 0; off < bytes; off += len(buf) {
			e.WriteMem(base+mach.Addr(off), buf)
		}
		for it := 0; it < cfg.Iters; it++ {
			var sum uint64
			for off := 0; off < bytes; off += 8 {
				sum = sum*31 + e.Load64(base+mach.Addr(off))
				e.Compute(1)
			}
			_ = sum
		}
		e.Exit(0)
	}
}

// rleProgram does a compress-like run-length scan over byte data.
func rleProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		bytes := cfg.WorkingSetK * 1024
		base, err := e.Alloc(pagesFor(cfg.WorkingSetK))
		if err != nil {
			e.Exit(1)
		}
		pattern := make([]byte, 4096)
		for i := range pattern {
			pattern[i] = byte(i / 17) // runs of length 17
		}
		for off := 0; off < bytes; off += len(pattern) {
			e.WriteMem(base+mach.Addr(off), pattern)
		}
		chunk := make([]byte, 4096)
		for it := 0; it < cfg.Iters; it++ {
			runs := 0
			var last byte
			for off := 0; off < bytes; off += len(chunk) {
				e.ReadMem(base+mach.Addr(off), chunk)
				for _, b := range chunk {
					if b != last {
						runs++
						last = b
					}
				}
				e.Compute(uint64(len(chunk)) / 8)
			}
			_ = runs
		}
		e.Exit(0)
	}
}

// pureComputeProgram models an ALU-bound kernel: no memory traffic at all,
// the baseline where cloaking should cost essentially nothing.
func pureComputeProgram(cfg CPUConfig) guestos.Program {
	return func(e guestos.Env) {
		for it := 0; it < cfg.Iters; it++ {
			e.Compute(uint64(cfg.WorkingSetK) * 1024 / 4)
		}
		e.Exit(0)
	}
}
