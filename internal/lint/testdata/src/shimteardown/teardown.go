// Package shim is determinism-analyzer testdata loaded under the production
// import path overshadow/internal/shim. The shim serializes nothing itself,
// but its teardown flushes files and releases resources, and each step
// charges cycles and may write the disk, so the order of a map walk there
// reaches the machine's exports.
package shim

import "overshadow/internal/ordered"

type file struct{ dirty bool }

type ctx struct {
	files   map[int]*file
	flushed []int
}

func (c *ctx) flush(fd int) { c.flushed = append(c.flushed, fd) }

// exitBroken flushes in Go's randomized map order: two runs of one seed
// write the files in different orders.
func (c *ctx) exitBroken() {
	for fd := range c.files { // want `map iteration order is nondeterministic: walk ordered\.Keys\(m\) instead`
		c.flush(fd)
	}
}

// exitOrdered is the sanctioned shape: the same flush in descriptor order.
func (c *ctx) exitOrdered() {
	for _, fd := range ordered.Keys(c.files) {
		if c.files[fd].dirty {
			c.flush(fd)
		}
	}
}
