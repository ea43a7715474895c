package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// -update regenerates the golden snapshot files under testdata/. Run it
// after a deliberate format change (and bump SnapshotVersion!); the golden
// tests otherwise pin the encoding byte for byte.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCases are small fixed graphs with fixed metadata whose encodings
// are pinned under testdata/. Together they cover an empty graph, an
// isolated vertex, and a graph with degree variety.
var goldenCases = []struct {
	name  string
	meta  SnapshotMeta
	edges [][2]int32
	n     int32
}{
	{name: "empty", meta: SnapshotMeta{}, n: 0},
	{name: "triangle", meta: SnapshotMeta{Mode: 0, Seq: 3}, n: 3,
		edges: [][2]int32{{0, 1}, {1, 2}, {0, 2}}},
	{name: "star_isolated", meta: SnapshotMeta{Mode: 1, Seq: 42}, n: 6,
		edges: [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}}, // vertex 5 isolated
	{name: "diamond", meta: SnapshotMeta{Mode: 1, Seq: 1}, n: 4,
		edges: [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}},
}

func goldenGraph(t *testing.T, i int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(goldenCases[i].n, goldenCases[i].edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape (n=%d,m=%d), want (n=%d,m=%d)",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if !equalInt64s(gotOff, wantOff) || !equalInt32s(gotAdj, wantAdj) {
		t.Fatalf("CSR mismatch:\n got %v %v\nwant %v %v", gotOff, gotAdj, wantOff, wantAdj)
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotGolden pins the byte-stable encoding: every golden case must
// encode to exactly the bytes under testdata/ and decode back to the same
// graph and metadata.
func TestSnapshotGolden(t *testing.T) {
	for i, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g := goldenGraph(t, i)
			enc := EncodeSnapshot(g, tc.meta)
			path := filepath.Join("testdata", tc.name+".snap")
			if *update {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(enc, golden) {
				t.Fatalf("encoding of %q drifted from golden file (%d vs %d bytes) — "+
					"a format change must bump SnapshotVersion and regenerate testdata with -update",
					tc.name, len(enc), len(golden))
			}
			dg, meta, err := DecodeSnapshot(golden)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if meta != tc.meta {
				t.Fatalf("meta = %+v, want %+v", meta, tc.meta)
			}
			sameGraph(t, dg, g)
		})
	}
}

// TestSnapshotRetiredSlotIgnored: header bytes 8–12 held a lazy-mode
// graph's maintained k until that k was retired; the encoder writes 0 there
// and the decoder reads past whatever an older file holds.
func TestSnapshotRetiredSlotIgnored(t *testing.T) {
	g := goldenGraph(t, 3)
	enc := EncodeSnapshot(g, goldenCases[3].meta)
	if got := binary.LittleEndian.Uint32(enc[8:12]); got != 0 {
		t.Fatalf("retired slot written as %d, want 0", got)
	}
	binary.LittleEndian.PutUint32(enc[8:12], 2)
	dg, meta, err := DecodeSnapshot(reseal(enc))
	if err != nil {
		t.Fatal(err)
	}
	if meta != goldenCases[3].meta {
		t.Fatalf("meta = %+v, want %+v", meta, goldenCases[3].meta)
	}
	sameGraph(t, dg, g)
}

// TestSnapshotRoundTripCanonical: decode(encode(x)) is identity and the
// encoding is canonical — re-encoding a decoded snapshot reproduces the
// input bytes exactly.
func TestSnapshotRoundTripCanonical(t *testing.T) {
	for i, tc := range goldenCases {
		g := goldenGraph(t, i)
		enc := EncodeSnapshot(g, tc.meta)
		dg, meta, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if re := EncodeSnapshot(dg, meta); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encoding is not canonical", tc.name)
		}
	}
}

// reseal recomputes the trailing CRC so corruption tests exercise the check
// they aim at instead of tripping the checksum first.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

func TestSnapshotVersionMismatch(t *testing.T) {
	g := goldenGraph(t, 1)
	enc := EncodeSnapshot(g, SnapshotMeta{})
	binary.LittleEndian.PutUint16(enc[4:6], SnapshotVersionState+1)
	reseal(enc)
	if _, _, err := DecodeSnapshot(enc); err == nil {
		t.Fatal("future version accepted")
	} else if want := "unsupported snapshot version"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g := goldenGraph(t, 3)
	enc := EncodeSnapshot(g, SnapshotMeta{Seq: 9})

	cases := map[string][]byte{
		"empty":            {},
		"short header":     enc[:20],
		"truncated body":   enc[:len(enc)-8],
		"trailing garbage": append(append([]byte(nil), enc...), 0xAB),
		"bad magic": func() []byte {
			c := append([]byte(nil), enc...)
			c[0] ^= 0xFF
			return c
		}(),
		"flipped body byte": func() []byte {
			c := append([]byte(nil), enc...)
			c[snapFixedHeaderLen+3] ^= 0x01 // inside the offsets section
			return c
		}(),
		"reserved byte set": func() []byte {
			c := append([]byte(nil), enc...)
			c[7] = 1
			return reseal(c)
		}(),
		"asymmetric adjacency": func() []byte {
			// Resealed corruption of an adjacency entry: the CRC passes,
			// FromCSR's structural validation must catch it.
			c := append([]byte(nil), enc...)
			c[len(c)-4-4] ^= 0x02
			return reseal(c)
		}(),
	}
	for name, data := range cases {
		if _, _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ebws")
	g := goldenGraph(t, 2)
	meta := SnapshotMeta{Mode: 1, Seq: 42}
	if _, err := writeSnapshotFile(path, g, meta, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	rec, _, unmap, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer unmap()
	if rec.State != nil || rec.StateErr != nil {
		t.Fatalf("version-1 snapshot reports state %v (err %v), want none", rec.State, rec.StateErr)
	}
	if rec.Perm != nil || rec.PermErr != nil {
		t.Fatalf("version-1 snapshot reports perm %v (err %v), want none", rec.Perm, rec.PermErr)
	}
	if rec.Stamps != nil || rec.StampsErr != nil {
		t.Fatalf("version-1 snapshot reports stamps %v (err %v), want none", rec.Stamps, rec.StampsErr)
	}
	if rec.Meta != meta {
		t.Fatalf("meta = %+v, want %+v", rec.Meta, meta)
	}
	sameGraph(t, rec.Graph, g)
}

// TestSectionWalkOrder pins what the shared section walker adds to the three
// decoders' own checks: sections are accepted in their canonical order only,
// each at most once, and a version-2 image with no section at all is a torn
// file, not an empty one.
func TestSectionWalkOrder(t *testing.T) {
	g := goldenGraph(t, 1)
	n := uint32(g.NumVertices())
	perm := []int32{2, 0, 1}
	ts := &TemporalState{WindowMS: 1000, Stamps: []int64{1, 2, 3}}
	graphPart := func() []byte { return encodeGraphPart(g, SnapshotMeta{}, SnapshotVersionState, 0) }
	permSec := func(b []byte) []byte {
		return appendSection(b, sectionPerm, 0, n, func(b []byte) []byte { return appendWords(b, perm) })
	}
	stampsSec := func(b []byte) []byte {
		return appendSection(b, sectionStamps, 0, n, func(b []byte) []byte { return appendStampsPayload(b, ts) })
	}

	decodeAll := func(img []byte) (stErr, permErr, tsErr error) {
		if _, _, err := DecodeSnapshot(img); err != nil {
			t.Fatalf("graph part should be unaffected: %v", err)
		}
		_, stErr = DecodeSnapshotState(img)
		_, permErr = DecodeSnapshotPerm(img)
		_, tsErr = DecodeSnapshotStamps(img)
		return
	}

	if stErr, permErr, tsErr := decodeAll(graphPart()); stErr == nil || permErr == nil || tsErr == nil {
		t.Errorf("sectionless v2 image accepted: state %v, perm %v, stamps %v", stErr, permErr, tsErr)
	}
	swapped := permSec(stampsSec(graphPart()))
	if stErr, permErr, tsErr := decodeAll(swapped); stErr != nil || permErr != nil || tsErr != nil {
		// Each decoder stops at the temporal section: it is either the one
		// wanted or proof that an earlier kind is absent.
		t.Errorf("stamps-then-perm: state %v, perm %v, stamps %v; want no errors", stErr, permErr, tsErr)
	}
	if got, _ := DecodeSnapshotPerm(swapped); got != nil {
		t.Errorf("perm section after the temporal section decoded: %v", got)
	}
	if got, _ := DecodeSnapshotStamps(swapped); got == nil {
		t.Error("leading temporal section not decoded")
	}
	doubled := stampsSec(permSec(permSec(graphPart())))
	if _, _, tsErr := decodeAll(doubled); tsErr == nil {
		t.Error("temporal section behind a duplicated perm section accepted")
	}
}

// TestCheckpointEncodingViewInvariant: a checkpoint encodes whichever view
// holds the graph — the writer's DynGraph, the overlay chain published from
// it, the chain's Materialize and the DynGraph's Freeze — to the same bytes,
// with and without the maintainer-state and temporal sections; the temporal
// section's stamps, exported from each view, agree too. Random
// insert/delete scripts grow the vertex set and deepen the chain.
func TestCheckpointEncodingViewInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xC4EC))
		m := dynamic.NewMaintainer(gen.BarabasiAlbert(40, 3, seed))
		d := m.Graph()
		ti := graph.NewTemporalIndex(1000)
		graph.EachEdgeIn(d, func(u, v int32) bool { ti.Stamp(u, v, 0); return true })
		var view graph.View = d.Freeze(1)
		for batch := int64(1); batch <= 12; batch++ {
			for range 6 {
				n := d.NumVertices()
				u := rng.Int32N(n)
				if nb := d.Neighbors(u); rng.IntN(3) == 0 && len(nb) > 0 {
					v := nb[rng.IntN(len(nb))]
					if m.DeleteEdge(u, v) == nil {
						ti.Forget(u, v)
					}
				} else if v := rng.Int32N(n + 2); m.InsertEdge(u, v) == nil {
					ti.Stamp(u, v, batch)
				}
			}
			ov := d.FreezeOverlay(view)
			view = ov
			views := []graph.View{d, ov, ov.Materialize(2), d.Freeze(1)}
			meta := SnapshotMeta{Seq: uint64(batch)}
			st := &MaintainerState{Local: m.ExportState()}
			for _, mst := range []*MaintainerState{nil, st} {
				for _, withStamps := range []bool{false, true} {
					var want []byte
					for i, v := range views {
						var ts *TemporalState
						if withStamps {
							stamps, err := ti.ExportStamps(v)
							if err != nil {
								t.Fatal(err)
							}
							ts = &TemporalState{WindowMS: 1000, Stamps: stamps}
						}
						got := EncodeSnapshotFull(v, meta, mst, nil, ts)
						if i == 0 {
							want = got
						} else if !bytes.Equal(got, want) {
							t.Fatalf("seed %d batch %d state=%v stamps=%v: view %d (%T) encodes %d bytes unlike the DynGraph's %d",
								seed, batch, mst != nil, withStamps, i, v, len(got), len(want))
						}
					}
					if _, _, err := DecodeSnapshot(want); err != nil {
						t.Fatalf("seed %d batch %d: %v", seed, batch, err)
					}
				}
			}
		}
		if depth := view.(*graph.Overlay).Depth(); depth != 12 {
			t.Fatalf("seed %d: chain depth %d, want 12", seed, depth)
		}
	}
}
