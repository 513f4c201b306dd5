// Package vmm is smpready-analyzer testdata loaded under the production
// import path overshadow/internal/vmm (one of the gated machine-model
// packages). Package-level vars written at runtime are findings; struct
// state, however many entry paths write it, is serialized by the scheduler
// baton and stays silent.
package vmm

var epoch uint64 // want `package-level var epoch is written at runtime`

var table = map[int]int{} // want `package-level var table is written at runtime`

var config struct{ n int } // want `package-level var config is written at runtime`

// Never written: sentinel values carry no race.
var Sentinel = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

//overlint:allow smpready -- testdata: deliberate exception
var allowedVar int

// Shadow has no mutex and is written from two entry paths (Translate and
// EnterKernel): only the baton holder runs either, so no finding.
type Shadow struct {
	hits uint64
}

type VMM struct{ sh *Shadow }

type Thread struct{ v *VMM }

func (v *VMM) Translate(addr uint64) uint64 {
	epoch++
	table[1] = 2
	config.n = 3
	allowedVar = 1
	v.sh.hits++
	return addr
}

func (t *Thread) EnterKernel() {
	t.v.sh.hits++
}
