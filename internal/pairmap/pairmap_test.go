package pairmap

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestKeyPacking(t *testing.T) {
	cases := [][2]int32{{0, 1}, {1, 0}, {5, 9}, {9, 5}, {0, 2147483647}}
	for _, c := range cases {
		k := Key(c[0], c[1])
		if k == emptySlot || k == tombstone {
			t.Fatalf("Key(%d,%d) collides with a sentinel", c[0], c[1])
		}
		lo, hi := Split(k)
		wantLo, wantHi := c[0], c[1]
		if wantLo > wantHi {
			wantLo, wantHi = wantHi, wantLo
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("Split(Key(%d,%d)) = (%d,%d)", c[0], c[1], lo, hi)
		}
	}
	if Key(3, 7) != Key(7, 3) {
		t.Fatal("Key must be order-insensitive")
	}
}

func TestMapBasics(t *testing.T) {
	m := New()
	k := Key(1, 2)
	if _, ok := m.Get(k); ok {
		t.Fatal("empty map claims membership")
	}
	if got := m.Add(k, 1); got != 1 {
		t.Fatalf("Add = %d, want 1", got)
	}
	if got := m.Add(k, 2); got != 3 {
		t.Fatalf("Add = %d, want 3", got)
	}
	if v, ok := m.Get(k); !ok || v != 3 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Decrement back to zero removes the entry entirely.
	m.Add(k, -3)
	if _, ok := m.Get(k); ok {
		t.Fatal("entry survived decrement to zero")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after removal", m.Len())
	}
}

func TestMarkerSemantics(t *testing.T) {
	m := New()
	k := Key(4, 9)
	m.SetMarker(k)
	if !m.IsMarker(k) {
		t.Fatal("marker not set")
	}
	m.SetMarker(k) // idempotent
	if m.Len() != 1 {
		t.Fatalf("Len = %d after double mark", m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a marker must panic")
		}
	}()
	m.Add(k, 1)
}

func TestNegativeCountPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative count must panic")
		}
	}()
	m.Add(Key(1, 2), -1)
}

func TestDeleteAndTombstoneReuse(t *testing.T) {
	m := New()
	for i := int32(0); i < 100; i++ {
		m.Set(Key(i, i+1), i+1)
	}
	for i := int32(0); i < 100; i += 2 {
		if !m.Delete(Key(i, i+1)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if m.Delete(Key(0, 1)) {
		t.Fatal("double delete returned true")
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50", m.Len())
	}
	for i := int32(1); i < 100; i += 2 {
		if v, ok := m.Get(Key(i, i+1)); !ok || v != i+1 {
			t.Fatalf("survivor %d: got %d,%v", i, v, ok)
		}
	}
	// Reinsert into tombstoned slots.
	for i := int32(0); i < 100; i += 2 {
		m.Set(Key(i, i+1), 7)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d after reinserts", m.Len())
	}
}

func TestIterate(t *testing.T) {
	m := New()
	want := map[uint64]int32{}
	for i := int32(0); i < 200; i++ {
		k := Key(i, i+100+i%3)
		m.Set(k, i)
		want[k] = i
	}
	got := map[uint64]int32{}
	m.Iterate(func(k uint64, v int32) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	count := 0
	m.Iterate(func(uint64, int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestReset(t *testing.T) {
	m := New()
	for i := int32(0); i < 50; i++ {
		m.Set(Key(i, i+1), 1)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after reset", m.Len())
	}
	if _, ok := m.Get(Key(3, 4)); ok {
		t.Fatal("entry survived reset")
	}
	m.Set(Key(3, 4), 9)
	if v, _ := m.Get(Key(3, 4)); v != 9 {
		t.Fatal("map unusable after reset")
	}
}

// TestQuickAgainstBuiltinMap drives random operation sequences against
// map[uint64]int32 as the oracle.
func TestQuickAgainstBuiltinMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := New()
		oracle := map[uint64]int32{}
		for op := 0; op < 2000; op++ {
			i := rng.Int32N(40)
			j := rng.Int32N(40)
			if i == j {
				continue
			}
			k := Key(i, j)
			switch rng.IntN(4) {
			case 0: // Add 1 (skip if oracle holds marker)
				if v, ok := oracle[k]; !ok || v != 0 {
					m.Add(k, 1)
					oracle[k] = oracle[k] + 1
				}
			case 1: // Set arbitrary positive
				v := rng.Int32N(100) + 1
				m.Set(k, v)
				oracle[k] = v
			case 2: // Delete
				if m.Delete(k) != (func() bool { _, ok := oracle[k]; return ok })() {
					return false
				}
				delete(oracle, k)
			case 3: // Marker
				m.SetMarker(k)
				oracle[k] = 0
			}
			if m.Len() != len(oracle) {
				return false
			}
		}
		for k, v := range oracle {
			got, ok := m.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := NewWithCapacity(1000)
	if m.MemoryFootprint() <= 0 {
		t.Fatal("footprint must be positive")
	}
}

// TestTableRoundTrip drives a map through a mixed insert/overwrite/delete
// history, dumps the raw table, rebuilds via FromTable, and checks the copy
// behaves identically — including tombstones and live counts surviving the
// round trip verbatim.
func TestTableRoundTrip(t *testing.T) {
	m := New()
	for i := int32(0); i < 300; i++ {
		m.Set(Key(i, i+7), i+1)
	}
	for i := int32(0); i < 300; i += 3 {
		m.Delete(Key(i, i+7))
	}
	m.SetMarker(Key(2, 5))

	keys, vals := m.Table()
	got, err := FromTable(append([]uint64(nil), keys...), append([]int32(nil), vals...), 1000)
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}
	if got.Len() != m.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), m.Len())
	}
	m.Iterate(func(k uint64, val int32) bool {
		v, ok := got.Get(k)
		if !ok || v != val {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, v, ok, val)
		}
		return true
	})
	// The rebuilt map must keep working as a hash table: insert enough new
	// entries to force growth, then verify old and new coexist.
	for i := int32(500); i < 900; i++ {
		got.Set(Key(i, i+1), 9)
	}
	if v, ok := got.Get(Key(1, 8)); !ok || v != 2 {
		t.Fatalf("lost pre-round-trip entry after growth: (%d,%v)", v, ok)
	}
	if !got.IsMarker(Key(2, 5)) {
		t.Fatal("marker entry lost in round trip")
	}
}

// TestFromTableRejects enumerates the structural defects FromTable must
// refuse: size/shape violations, non-canonical keys, out-of-bound vertices,
// negative counts, and over-full tables whose probes could not terminate.
func TestFromTableRejects(t *testing.T) {
	mk := func(edit func(keys []uint64, vals []int32)) ([]uint64, []int32) {
		keys := make([]uint64, 8)
		vals := make([]int32, 8)
		edit(keys, vals)
		return keys, vals
	}
	cases := []struct {
		name string
		keys []uint64
		vals []int32
	}{
		{name: "length mismatch", keys: make([]uint64, 8), vals: make([]int32, 4)},
		{name: "not power of two", keys: make([]uint64, 12), vals: make([]int32, 12)},
		{name: "too small", keys: make([]uint64, 4), vals: make([]int32, 4)},
	}
	addCase := func(name string, edit func(keys []uint64, vals []int32)) {
		k, v := mk(edit)
		cases = append(cases, struct {
			name string
			keys []uint64
			vals []int32
		}{name, k, v})
	}
	addCase("non-canonical key (hi ≥ lo)", func(keys []uint64, _ []int32) {
		keys[0] = uint64(9)<<32 | 3
	})
	addCase("vertex beyond bound", func(keys []uint64, _ []int32) {
		keys[0] = Key(1, 99)
	})
	addCase("negative count", func(keys []uint64, vals []int32) {
		keys[0], vals[0] = Key(1, 2), -1
	})
	addCase("over-full table", func(keys []uint64, _ []int32) {
		for i := range keys {
			keys[i] = tombstone
		}
	})
	for _, tc := range cases {
		if _, err := FromTable(tc.keys, tc.vals, 10); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The happy path with the same bound, as a control.
	keys, vals := mk(func(keys []uint64, vals []int32) {
		keys[0], vals[0] = Key(1, 2), 3
	})
	if _, err := FromTable(keys, vals, 10); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}
