// Package core is call-graph testdata: direct calls, mutual recursion,
// method values, and closures, each exercising one edge-construction rule.
package core

func entry() { a() }

func a() { b() }

// b closes the mutual-recursion cycle a <-> b.
func b() { a() }

// viaValue references helperMV as a value, never calling it: no call edge.
func viaValue() {
	f := helperMV
	_ = f
}

func helperMV() {}

// viaClosure calls closTarget from inside a function literal; the literal's
// body belongs to the enclosing declaration, so the edge is a direct call.
func viaClosure() {
	fn := func() { closTarget() }
	fn()
}

func closTarget() {}

type T struct{}

func (t T) M() {}

// methodValue takes t.M as a bound method value: no call edge to T.M.
func methodValue(t T) {
	m := t.M
	_ = m
}
