// Package fillutil is a helper outside the cycle-domain package list:
// detflow's backstop scope does not apply here, so only its
// interprocedural taint can connect the iteration below to a
// cycle-domain entry point.
package fillutil

// Ready returns the lines whose fills completed. BUG: map iteration
// order decides the result order.
func Ready(fills map[uint64]uint64, now uint64) []uint64 {
	var out []uint64
	for line, ready := range fills {
		if ready <= now {
			out = append(out, line)
		}
	}
	return out
}
