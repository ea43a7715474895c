package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// The decoders guard the trust boundary between the filesystem and the
// serving layer: whatever bytes a crash, a bad disk, or an operator's cp
// left behind, they must fail with an error — never panic, never
// over-allocate, never hand back a structurally invalid graph. Seed corpora
// (valid files plus near-miss mutations) live under testdata/fuzz/; CI runs
// both targets for a short smoke budget (non-gating), `go test -fuzz` runs
// them open-endedly.

func fuzzSnapshotSeeds() [][]byte {
	g1, _ := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	g2, _ := graph.FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	empty, _ := graph.FromEdges(0, nil)
	valid := EncodeSnapshot(g1, SnapshotMeta{Mode: 1, Seq: 42})
	truncated := valid[:len(valid)-6]
	flipped := append([]byte(nil), EncodeSnapshot(g2, SnapshotMeta{})...)
	flipped[len(flipped)/2] ^= 0x10
	return [][]byte{
		valid,
		EncodeSnapshot(g2, SnapshotMeta{Seq: 1}),
		EncodeSnapshot(empty, SnapshotMeta{}),
		truncated,
		flipped,
		snapMagic[:],
		fuzzStateSeeds()[0], // a version-2 image: both decoders see it
		fuzzPermSeeds()[1],  // a version-2 image with state and perm sections
	}
}

// fuzzPermSeeds are the FuzzDecodeSnapshotPerm starting points: version-2
// images carrying the relabel section alone and alongside maintainer state,
// a torn and a bit-flipped one, a version-1 file (no section — must decode
// to nil, nil), and bare magic.
func fuzzPermSeeds() [][]byte {
	g, _ := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	perm := []int32{2, 0, 3, 1}
	permOnly := EncodeSnapshotFull(g, SnapshotMeta{Seq: 3}, nil, perm, nil)
	m := dynamic.NewMaintainer(g)
	both := EncodeSnapshotFull(g, SnapshotMeta{Seq: 5},
		&MaintainerState{Local: m.ExportState()}, perm, nil)
	torn := permOnly[:len(permOnly)-5]
	flipped := append([]byte(nil), both...)
	flipped[len(flipped)-3] ^= 0x40
	return [][]byte{
		permOnly,
		both,
		torn,
		flipped,
		EncodeSnapshot(g, SnapshotMeta{}),
		permMagic[:],
	}
}

// FuzzDecodeSnapshotPerm hammers the relabel-section decoder: arbitrary
// bytes must yield a clean error or a permutation of the right length —
// never a panic. (Nothing applies the permutation any more, so its values
// are not judged here.)
func FuzzDecodeSnapshotPerm(f *testing.F) {
	for _, seed := range fuzzPermSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		perm, err := DecodeSnapshotPerm(data)
		if err != nil || perm == nil {
			return
		}
		g, _, err := DecodeSnapshot(data)
		if err != nil {
			return // graph part is judged independently; perm alone may pass
		}
		if int32(len(perm)) != g.NumVertices() {
			t.Fatalf("accepted perm has %d entries for an n=%d graph", len(perm), g.NumVertices())
		}
	})
}

// fuzzStateSeeds are the FuzzDecodeMaintainerState starting points: valid
// version-2 images for both maintainer forms, a torn and a bit-flipped one,
// a version-1 file (no section — must decode to nil, nil), and bare magic.
func fuzzStateSeeds() [][]byte {
	g, _ := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	m := dynamic.NewMaintainer(g)
	_ = m.InsertEdge(1, 3)
	_ = m.DeleteEdge(0, 1)
	local := EncodeSnapshotFull(m.Graph().Freeze(1), SnapshotMeta{Seq: 2},
		&MaintainerState{Local: m.ExportState()}, nil, nil)
	mf := dynamic.NewMapFreeMaintainer(g)
	_ = mf.DeleteEdge(0, 2)
	mapFree := EncodeSnapshotFull(mf.Graph().Freeze(1), SnapshotMeta{Mode: 1, Seq: 1},
		&MaintainerState{MapFree: mf.ExportMapFreeState()}, nil, nil)
	torn := local[:len(local)-8]
	flipped := append([]byte(nil), mapFree...)
	flipped[len(flipped)-2] ^= 0x20
	return [][]byte{
		local,
		mapFree,
		torn,
		flipped,
		EncodeSnapshot(g, SnapshotMeta{}),
		stateMagic[:],
	}
}

// reencodes reports whether re, the re-encoding of the accepted image data,
// is data byte for byte, or data with its local state's dirty frame emptied:
// the decoder checks that frame and ignores its ids, and the encoder writes
// it empty, so an image framing ids (older checkpoints and seed corpora do)
// re-encodes without them and differs nowhere else.
func reencodes(re, data []byte) bool {
	return bytes.Equal(re, data) || bytes.Equal(re, emptyDirtyFrame(data))
}

// emptyDirtyFrame returns data with the dirty frame of its local state
// section emptied — the count zeroed, the ids, payload length, CRC and
// padding after it redone — or nil when data frames no dirty id or leaves
// bytes after the section that are not another section.
func emptyDirtyFrame(data []byte) []byte {
	sec, err := findSection(data, sectionState)
	if err != nil || sec == nil || sec.tag != stateModeLocal {
		return nil
	}
	p, n := sec.payload, sec.n
	slotsPos := 20*n + 4*(n%2) // past scores, adjacent, tableSizes and padding
	countPos := slotsPos + 8 + 12*binary.LittleEndian.Uint64(p[slotsPos:])
	if binary.LittleEndian.Uint32(p[countPos:]) == 0 {
		return nil
	}
	off := cap(data) - cap(p) // p's offset in data, whose backing array it shares
	start, end := off-stateHeaderLen, off+len(p)+4
	out := append([]byte(nil), data[:off+int(countPos)]...)
	binary.LittleEndian.PutUint64(out[start+16:], countPos+4)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	if end == len(data) {
		return out
	}
	next := (end + 7) &^ 7
	if next >= len(data) {
		return nil
	}
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	return append(out, data[next:]...)
}

// TestSeedCorpora keeps the on-disk fuzz seed corpora (testdata/fuzz/<Fuzz
// target>/) in sync with the in-code seeds: -update rewrites them, normal
// runs verify they exist and carry the current format. `go test` always
// executes corpus files as regression inputs, and `go test -fuzz` mutates
// from them.
func TestSeedCorpora(t *testing.T) {
	for target, seeds := range map[string][][]byte{
		"FuzzDecodeSnapshot":        fuzzSnapshotSeeds(),
		"FuzzDecodeMaintainerState": fuzzStateSeeds(),
		"FuzzDecodeSnapshotPerm":    fuzzPermSeeds(),
		"FuzzDecodeWAL":             fuzzWALSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
				path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("seed corpus for %s (regenerate with -update): %v", target, err)
		}
		if len(ents) < len(seeds) {
			t.Fatalf("seed corpus for %s has %d files, want ≥ %d (regenerate with -update)",
				target, len(ents), len(seeds))
		}
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range fuzzSnapshotSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, meta, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted input must be fully self-consistent: a valid graph whose
		// canonical re-encoding reproduces the input byte for byte. For a
		// version-2 image the canonical form includes the state section, so
		// the check only closes when that section decodes too (its own
		// corruption is FuzzDecodeMaintainerState's department).
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph invalid: %v", err)
		}
		switch binary.LittleEndian.Uint16(data[4:6]) {
		case SnapshotVersion:
			if re := EncodeSnapshot(g, meta); !bytes.Equal(re, data) {
				t.Fatalf("accepted snapshot is not canonical: %d in, %d re-encoded", len(data), len(re))
			}
		case SnapshotVersionState:
			st, stErr := DecodeSnapshotState(data)
			perm, permErr := DecodeSnapshotPerm(data)
			if stErr == nil && permErr == nil && (st != nil || perm != nil) {
				if re := EncodeSnapshotFull(g, meta, st, perm, nil); !reencodes(re, data) {
					t.Fatalf("accepted v2 snapshot is not canonical: %d in, %d re-encoded", len(data), len(re))
				}
			}
		}
	})
}

// FuzzDecodeMaintainerState hammers the state-section decoder: arbitrary
// bytes must yield a clean error or a state that (a) re-encodes canonically
// alongside its graph and (b) can be offered to the import constructors
// without panicking — an import error is exactly the recovery path's
// fall-back-to-rebuild signal, so it is acceptable; a panic never is.
func FuzzDecodeMaintainerState(f *testing.F) {
	for _, seed := range fuzzStateSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshotState(data)
		if err != nil {
			return
		}
		if st == nil {
			return // version-1 image: no section exists and none is expected
		}
		g, meta, err := DecodeSnapshot(data)
		if err != nil {
			return // graph part is judged independently; state alone may pass
		}
		perm, permErr := DecodeSnapshotPerm(data)
		if permErr == nil {
			if re := EncodeSnapshotFull(g, meta, st, perm, nil); !reencodes(re, data) {
				t.Fatalf("accepted state section is not canonical: %d in, %d re-encoded", len(data), len(re))
			}
		}
		if st.Local != nil {
			_, _ = dynamic.NewMaintainerFromState(g, st.Local)
		}
		if st.MapFree != nil {
			_, _ = dynamic.NewMapFreeMaintainerFromState(g, st.MapFree)
		}
	})
}

func fuzzWALSeeds() [][]byte {
	valid := walImage(
		Batch{Seq: 1, Insert: true, Edges: [][2]int32{{0, 1}, {2, 3}}},
		Batch{Seq: 2, Insert: false, Edges: [][2]int32{{0, 1}}},
		Batch{Seq: 3, Insert: true, Edges: nil},
	)
	torn := valid[:len(valid)-4]
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderLen+9] ^= 0x01
	stamped := walImage(
		Batch{Seq: 1, Insert: true, Edges: [][2]int32{{0, 1}, {2, 3}}, Stamps: []int64{1000, 2000}},
		Batch{Seq: 2, Insert: false, Edges: [][2]int32{{0, 1}}},
	)
	v1 := append([]byte(nil), valid...)
	v1[4] = 1 // the pre-temporal header version; records are stampless
	return [][]byte{valid, torn, flipped, walFileHeader(), walMagic[:], stamped, v1}
}

func FuzzDecodeWAL(f *testing.F) {
	for _, seed := range fuzzWALSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, valid, err := DecodeWAL(data)
		if err != nil {
			if len(batches) != 0 || valid != 0 {
				t.Fatalf("error with partial results: %d batches, valid=%d", len(batches), valid)
			}
			return
		}
		if valid < walHeaderLen || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [%d, %d]", valid, walHeaderLen, len(data))
		}
		// The valid prefix must re-encode to exactly its own bytes: the
		// decode → encode → decode cycle is the torn-tail repair path. The
		// header is carried over verbatim — repair truncates in place and
		// never rewrites it — so version-1 corpus files keep exercising the
		// backward-compatible record decode.
		img := append([]byte(nil), data[:walHeaderLen]...)
		for _, b := range batches {
			img = append(img, EncodeBatch(b)...)
		}
		if !bytes.Equal(img, data[:valid]) {
			t.Fatalf("valid prefix is not canonical (%d bytes in, %d re-encoded)", valid, len(img))
		}
		if re, revalid, err := DecodeWAL(img); err != nil || revalid != len(img) || len(re) != len(batches) {
			t.Fatalf("repaired log does not re-decode cleanly: %v", err)
		}
	})
}
