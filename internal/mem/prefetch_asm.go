//go:build amd64

package mem

// hostPrefetch asks the host CPU to start loading the cache line holding
// *p (PREFETCHT0). It is a hint: it
// reads nothing, writes nothing and cannot fault.
//
//go:noescape
func hostPrefetch(p *byte)
