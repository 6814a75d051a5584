//go:build amd64

package mem

// hostPrefetch asks the host CPU to start loading the cache line that
// backs addr in pages (PREFETCHT0 at byte addr mod pageSize of page
// addr>>pageShift). It is a hint: it reads no simulated byte, writes
// nothing and cannot fault, so an unbacked or short page only wastes
// it, and a page beyond the table is skipped.
//
//go:noescape
func hostPrefetch(pages [][]byte, addr uint64)
