//go:build !amd64

package mem

// hostPrefetch is a no-op off amd64, the only target with a prefetch stub.
func hostPrefetch(pages [][]byte, addr uint64) {}
