//go:build !nocassert

package noc

import "gonoc/internal/sim"

// assertEnabled gates the per-tick runtime assertion layer (see
// assert_nocassert.go). Without the nocassert build tag it is a false
// constant, so the assertion call in Step is dead code the compiler
// removes: the default build pays nothing.
const assertEnabled = false

// assertPostStep is compiled out without the nocassert tag.
func (n *Network) assertPostStep() {}

// assertIdleTick is compiled out without the nocassert tag.
func (n *Network) assertIdleTick(id int, c sim.Cycle) {}
