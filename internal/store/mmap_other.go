//go:build !linux

package store

import "os"

// mapFile reads path into the heap on platforms without the mmap fast path;
// the decoder's aliasing contract is unchanged (the caller hands the buffer
// over either way), and there is nothing to unmap.
func mapFile(path string) (data []byte, unmap func(), err error) {
	data, err = os.ReadFile(path)
	return data, func() {}, err
}
