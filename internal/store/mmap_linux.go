//go:build linux

package store

import (
	"os"
	"syscall"
)

// mapFile returns the contents of path as a copy-on-write mapping of the
// page cache instead of a heap copy, and unmap, which releases it. This is
// what the snapshot format's 8-aligned word layout exists for:
// DecodeSnapshotState aliases its arrays straight out of this buffer, so a
// recovered maintainer's evidence tables are file-backed pages — no read
// copy, no conversion pass. The mapping is MAP_PRIVATE with write permission
// because an imported maintainer keeps mutating those tables in place: only
// the pages it actually dirties are duplicated, on first write. The caller
// owns the mapping — a Store holds it from Open to Close — and calls unmap
// once nothing reads data any more; a mapping left behind would pin the
// snapshot file's blocks (even after a checkpoint replaced the file) and
// every page the maintainer dirtied.
func mapFile(path string) (data []byte, unmap func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := info.Size()
	if size > 0 && int64(int(size)) == size {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
		if err == nil {
			return data, func() { _ = syscall.Munmap(data) }, nil
		}
	}
	// Empty (mmap would fail), absurdly large, or unmappable: mmap is an
	// optimization, never a requirement. The plain read also produces the
	// right errors for the decoder to report.
	data, err = os.ReadFile(path)
	return data, func() {}, err
}
