// Package pairmap provides the compact hash structures that back the paper's
// per-vertex maps S_u. An S_u maps an unordered pair {i, j} of neighbors of u
// to the evidence gathered about the pair inside u's ego network:
//
//	val == 0  — marker: (i, j) ∈ E, the pair is adjacent in GE(u) and
//	            contributes 0 to CB(u)  (the paper's S̄E set);
//	val == c>0 — c connectors of the non-adjacent pair have been discovered
//	            (the paper's ŜE set; exact once all ego edges are processed);
//	absent    — no evidence; if S_u is complete the pair has no connector and
//	            contributes exactly 1  (the paper's S̈E set).
//
// Map is a linear-probing open-addressing table over packed uint64 pair keys
// with int32 values: two flat slices, no per-entry allocation, deletion via
// tombstones.
package pairmap

import "fmt"

// Key packs an unordered vertex pair into a single uint64 with the smaller
// identifier in the upper half. Both identifiers must be non-negative and
// distinct; the result is never zero (zero is the table's empty sentinel,
// which is safe because min < max forces the low half to be ≥ 1 whenever the
// high half is 0).
func Key(i, j int32) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// Split unpacks a key produced by Key into (min, max).
func Split(k uint64) (int32, int32) {
	return int32(k >> 32), int32(uint32(k))
}

const (
	emptySlot uint64 = 0
	tombstone uint64 = ^uint64(0) // pair (2³²−1, 2³²−1) is invalid, safe sentinel
	// Marker is the stored value for adjacent pairs.
	Marker int32 = 0
)

// hash mixes a packed pair key (64-bit finalizer from MurmurHash3).
func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Map is an open-addressing uint64 → int32 hash map specialized for pair
// keys. The zero value is not usable; construct with New or NewWithCapacity.
type Map struct {
	keys  []uint64
	vals  []int32
	live  int // live entries
	dirty int // live entries + tombstones
}

// New returns an empty map with a small initial table.
func New() *Map { return NewWithCapacity(0) }

// NewWithCapacity returns an empty map sized to hold at least c entries
// without growing.
func NewWithCapacity(c int) *Map {
	size := 8
	for size*3 < c*4 { // keep load factor ≤ 0.75
		size <<= 1
	}
	return &Map{keys: make([]uint64, size), vals: make([]int32, size)}
}

// Len returns the number of live entries.
func (m *Map) Len() int { return m.live }

// Get returns the value stored for key k.
func (m *Map) Get(k uint64) (int32, bool) {
	mask := uint64(len(m.keys) - 1)
	i := hash(k) & mask
	for {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case emptySlot:
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// Set stores val for key k, inserting or overwriting.
func (m *Map) Set(k uint64, val int32) {
	m.ensure()
	mask := uint64(len(m.keys) - 1)
	i := hash(k) & mask
	firstTomb := -1
	for {
		switch m.keys[i] {
		case k:
			m.vals[i] = val
			return
		case tombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case emptySlot:
			if firstTomb >= 0 {
				m.keys[firstTomb] = k
				m.vals[firstTomb] = val
			} else {
				m.keys[i] = k
				m.vals[i] = val
				m.dirty++
			}
			m.live++
			return
		}
		i = (i + 1) & mask
	}
}

// SetMarker records that the pair is adjacent (value 0). Overwrites any
// previous value; markers are idempotent by design.
func (m *Map) SetMarker(k uint64) { m.Set(k, Marker) }

// IsMarker reports whether k is stored with the adjacent-pair marker.
func (m *Map) IsMarker(k uint64) bool {
	v, ok := m.Get(k)
	return ok && v == Marker
}

// Add adds delta to the connector count of k and returns the new count,
// inserting the entry at delta when absent. When the count reaches zero the
// entry is removed (the pair falls back to the "no evidence" state). Calling
// Add on a marker entry or driving a count negative indicates a logic error
// in the caller and panics.
func (m *Map) Add(k uint64, delta int32) int32 {
	cur, ok := m.Get(k)
	if ok && cur == Marker {
		panic(fmt.Sprintf("pairmap: Add on marker entry %d,%d", int32(k>>32), int32(uint32(k))))
	}
	next := cur + delta
	switch {
	case next < 0:
		panic(fmt.Sprintf("pairmap: negative count for entry %d,%d", int32(k>>32), int32(uint32(k))))
	case next == 0:
		if ok {
			m.Delete(k)
		}
		return 0
	default:
		m.Set(k, next)
		return next
	}
}

// Delete removes key k, reporting whether it was present.
func (m *Map) Delete(k uint64) bool {
	mask := uint64(len(m.keys) - 1)
	i := hash(k) & mask
	for {
		switch m.keys[i] {
		case k:
			m.keys[i] = tombstone
			m.live--
			return true
		case emptySlot:
			return false
		}
		i = (i + 1) & mask
	}
}

// Iterate calls fn for every live entry until fn returns false. Iteration
// order is unspecified. The map must not be mutated during iteration.
func (m *Map) Iterate(fn func(k uint64, val int32) bool) {
	for i, k := range m.keys {
		if k != emptySlot && k != tombstone {
			if !fn(k, m.vals[i]) {
				return
			}
		}
	}
}

// Reset removes all entries but keeps the allocated table.
func (m *Map) Reset() {
	for i := range m.keys {
		m.keys[i] = emptySlot
	}
	m.live, m.dirty = 0, 0
}

// MemoryFootprint returns the approximate heap bytes held by the table.
func (m *Map) MemoryFootprint() int64 {
	return int64(len(m.keys))*8 + int64(len(m.vals))*4
}

// Table exposes the raw open-addressing table: the key and value slot arrays,
// including empty and tombstone slots. The slices are shared with the map and
// must not be modified. Dumping the table verbatim (and restoring it with
// FromTable) round-trips the map without rehashing a single key — the basis
// of the O(load) maintainer-state snapshot codec.
func (m *Map) Table() (keys []uint64, vals []int32) {
	return m.keys, m.vals
}

// FromTable reconstructs a Map directly from raw slot arrays as produced by
// Table, taking ownership of both slices — no entry is rehashed, so the cost
// is one validation scan. The table must be structurally sound: power-of-two
// size ≥ 8, at least a quarter of the slots free (so probes terminate and the
// load invariant holds), and every live key a canonical pair Key(i, j) with
// 0 ≤ i < j < idBound. Deeper consistency (values matching any particular
// graph) is the caller's contract, normally discharged by the checksum layer
// above this codec.
func FromTable(keys []uint64, vals []int32, idBound int32) (*Map, error) {
	m := new(Map)
	if err := m.ResetFromTable(keys, vals, idBound); err != nil {
		return nil, err
	}
	return m, nil
}

// ResetFromTable initializes m in place from a verbatim table, under the same
// contract as FromTable. It exists so a caller restoring many tables (one per
// vertex at recovery) can lay the Map headers out in a single slab instead of
// paying one heap allocation per table.
func (m *Map) ResetFromTable(keys []uint64, vals []int32, idBound int32) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("pairmap: table has %d key slots, %d value slots", len(keys), len(vals))
	}
	if len(keys) < 8 || len(keys)&(len(keys)-1) != 0 {
		return fmt.Errorf("pairmap: table size %d is not a power of two ≥ 8", len(keys))
	}
	vals = vals[:len(keys)] // one bounds check for the whole scan
	// This scan is the per-slot cost of restoring a maintainer from a
	// snapshot, so the hot path is branch-lean: a valid occupied slot packs
	// hi < lo < idBound, and since idBound ≤ 2³¹−1 the unsigned comparisons
	// below subsume the hi ≥ 0 check (hi ≥ 2³¹ could never sit under lo).
	bound := uint64(uint32(idBound))
	live, dirty := 0, 0
	for i, k := range keys {
		if k == emptySlot {
			continue
		}
		if k == tombstone {
			dirty++
			continue
		}
		if hi, lo := k>>32, k&0xffffffff; hi >= lo || lo >= bound {
			shi, slo := Split(k)
			return fmt.Errorf("pairmap: slot %d holds invalid pair key (%d,%d) under bound %d", i, shi, slo, idBound)
		}
		if vals[i] < 0 {
			return fmt.Errorf("pairmap: slot %d holds negative count %d", i, vals[i])
		}
		live++
		dirty++
	}
	if dirty*4 > len(keys)*3 {
		return fmt.Errorf("pairmap: table occupancy %d/%d exceeds the 3/4 load bound", dirty, len(keys))
	}
	*m = Map{keys: keys, vals: vals, live: live, dirty: dirty}
	return nil
}

// ensure grows the table when live+tombstone occupancy crosses 3/4,
// rehashing live entries and dropping tombstones.
func (m *Map) ensure() {
	if (m.dirty+1)*4 <= len(m.keys)*3 {
		return
	}
	size := len(m.keys) * 2
	// If most dirt is tombstones, rehash at the same size instead.
	if m.live*4 <= len(m.keys) {
		size = len(m.keys)
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, size)
	m.vals = make([]int32, size)
	m.live, m.dirty = 0, 0
	for i, k := range oldKeys {
		if k != emptySlot && k != tombstone {
			m.Set(k, oldVals[i])
		}
	}
}
