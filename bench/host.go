package main

import "time"

// A shared host changes speed by tens of percent within a minute as other
// tenants contend for its cores and caches; repeating passes inside one
// run cannot average that out. So every pass also times refWork, a fixed
// mix of map hashing, interface calls and page copies that runs no
// simulator code, once before each world, and end-to-end times are
// reported scaled to a host on which refWork takes refNominal. The same
// simulator then reads about the same on a fast or a slowed host, and
// only a change to the simulator moves the numbers. The raw host speed is
// reported per layer as host.ref_ns.
const refNominal = 400 * time.Microsecond // refWork on an idle 2-core x86-64 container

type refShape interface{ step(x uint64) uint64 }

type refMul struct{ k uint64 }
type refShift struct{ k uint64 }

func (s refMul) step(x uint64) uint64   { return x*s.k + 1 }
func (s refShift) step(x uint64) uint64 { return x*s.k>>1 + 3 }

var (
	refTable  = make(map[uint64]uint64, 4096)
	refShapes = []refShape{refMul{3}, refShift{5}, refMul{7}}
	refSrc    = make([]byte, 4096)
	refDst    = make([]byte, 4096)
	refSink   uint64
)

// refWork runs the reference work once and returns its host time.
func refWork() time.Duration {
	x := uint64(1)
	start := time.Now()
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		refTable[x&4095] += refShapes[x%3].step(x)
		if i&255 == 0 {
			copy(refDst, refSrc)
		}
	}
	refSink = x
	return time.Since(start)
}

// scale converts the pass's host times to refNominal host speed.
func (p pass) scale() float64 {
	return ratio(float64(refNominal)*float64(len(p.res)), float64(p.refNS))
}
