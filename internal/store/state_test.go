package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// stateOp is one scripted edge update used to build deterministic
// maintainer states for the golden files.
type stateOp struct {
	insert bool
	u, v   int32
}

// stateGoldenCases pin the version-2 encoding byte for byte. The maintainer
// states are built by running the paper's deterministic update algorithms
// over fixed scripts (the evidence tables' slot layout is a pure function of
// the insertion history), covering the satellite matrix: an empty graph, a
// state fresh after a single update batch, and a post-compaction shape where
// deletions have left tombstones and dirty bookkeeping behind.
var stateGoldenCases = []struct {
	name  string
	lazy  bool
	lazyK int
	n     int32
	edges [][2]int32
	ops   []stateOp
	meta  SnapshotMeta
}{
	{name: "v2_local_empty", n: 0, meta: SnapshotMeta{}},
	{name: "v2_local_batch", n: 5,
		edges: [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}},
		ops:   []stateOp{{true, 1, 3}, {true, 0, 3}, {false, 2, 3}},
		meta:  SnapshotMeta{Mode: 0, Seq: 3}},
	{name: "v2_lazy_compacted", lazy: true, lazyK: 2, n: 6,
		edges: [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}, {4, 5}},
		ops:   []stateOp{{false, 0, 1}, {true, 1, 4}, {true, 0, 1}, {false, 2, 3}},
		meta:  SnapshotMeta{Mode: 1, LazyK: 2, Seq: 4}},
}

// buildStateCase runs case i's script and returns the frozen graph plus the
// exported maintainer state, exactly as a serving-layer checkpoint would.
func buildStateCase(t *testing.T, i int) (*graph.Graph, *MaintainerState) {
	t.Helper()
	tc := stateGoldenCases[i]
	g, err := graph.FromEdges(tc.n, tc.edges)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(insert, del func(u, v int32) error) {
		for _, op := range tc.ops {
			var err error
			if op.insert {
				err = insert(op.u, op.v)
			} else {
				err = del(op.u, op.v)
			}
			if err != nil {
				t.Fatalf("case %s op %+v: %v", tc.name, op, err)
			}
		}
	}
	if tc.lazy {
		lt := dynamic.NewLazyTopK(g, tc.lazyK)
		apply(lt.InsertEdge, lt.DeleteEdge)
		return lt.Graph().Freeze(1), &MaintainerState{Lazy: lt.ExportState()}
	}
	m := dynamic.NewMaintainer(g)
	apply(m.InsertEdge, m.DeleteEdge)
	return m.Graph().Freeze(1), &MaintainerState{Local: m.ExportState()}
}

// TestStateGolden pins the version-2 encoding byte for byte and proves the
// golden files decode into a usable maintainer state: graph part, state
// section, and an actual state import over the decoded graph.
func TestStateGolden(t *testing.T) {
	for i, tc := range stateGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g, st := buildStateCase(t, i)
			enc := EncodeSnapshotFull(g, tc.meta, st, nil, nil)
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
					"a format change must bump SnapshotVersionState/StateVersion and regenerate testdata with -update",
					tc.name, len(enc), len(golden))
			}
			dg, meta, err := DecodeSnapshot(golden)
			if err != nil {
				t.Fatalf("decode golden graph: %v", err)
			}
			if meta != tc.meta {
				t.Fatalf("meta = %+v, want %+v", meta, tc.meta)
			}
			sameGraph(t, dg, g)
			dst, err := DecodeSnapshotState(golden)
			if err != nil {
				t.Fatalf("decode golden state: %v", err)
			}
			if tc.lazy {
				if dst.Lazy == nil {
					t.Fatal("lazy case decoded without lazy state")
				}
				if _, err := dynamic.NewLazyTopKFromState(dg, tc.lazyK, dst.Lazy); err != nil {
					t.Fatalf("import decoded lazy state: %v", err)
				}
			} else {
				if dst.Local == nil {
					t.Fatal("local case decoded without local state")
				}
				if _, err := dynamic.NewMaintainerFromState(dg, dst.Local); err != nil {
					t.Fatalf("import decoded local state: %v", err)
				}
			}
		})
	}
}

// TestStateRoundTripCanonical: the v2 encoding is canonical — decoding the
// graph and the state and re-encoding them reproduces the input bytes, which
// is the invariant the fuzz targets lean on.
func TestStateRoundTripCanonical(t *testing.T) {
	for i, tc := range stateGoldenCases {
		g, st := buildStateCase(t, i)
		enc := EncodeSnapshotFull(g, tc.meta, st, nil, nil)
		dg, meta, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dst, err := DecodeSnapshotState(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if re := EncodeSnapshotFull(dg, meta, dst, nil, nil); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encoding is not canonical (%d in, %d out)", tc.name, len(enc), len(re))
		}
	}
}

// resealState recomputes the state section's trailing CRC (the file's last
// four bytes) so corruption tests reach the check they aim at.
func resealState(data []byte) []byte {
	start := bytes.LastIndex(data, stateMagic[:])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[start:len(data)-4]))
	return data
}

// TestStateSectionCorruption is the codec half of the corruption matrix:
// every defect must (a) leave DecodeSnapshot of the graph part untouched and
// (b) turn DecodeSnapshotState into a descriptive error — never a panic,
// never a silently wrong state. The serving layer maps exactly this split
// onto its fast-vs-rebuild recovery decision.
func TestStateSectionCorruption(t *testing.T) {
	g, st := buildStateCase(t, 1) // v2_local_batch
	valid := EncodeSnapshotFull(g, stateGoldenCases[1].meta, st, nil, nil)
	secAt := bytes.LastIndex(valid, stateMagic[:])
	if secAt < 0 || secAt%8 != 0 {
		t.Fatalf("state section offset %d, want 8-aligned", secAt)
	}

	cases := map[string]struct {
		mutate func(c []byte) []byte
		want   string
	}{
		"truncated section": {
			mutate: func(c []byte) []byte { return c[:len(c)-10] },
			want:   "maintainer-state payload",
		},
		"section chopped at header": {
			mutate: func(c []byte) []byte { return c[:secAt+8] },
			want:   "truncated",
		},
		"flipped crc": {
			mutate: func(c []byte) []byte { c[len(c)-1] ^= 0x01; return c },
			want:   "checksum mismatch",
		},
		"flipped payload byte": {
			mutate: func(c []byte) []byte { c[secAt+stateHeaderLen+2] ^= 0x40; return c },
			want:   "checksum mismatch",
		},
		"state version bump": {
			mutate: func(c []byte) []byte {
				binary.LittleEndian.PutUint16(c[secAt+4:secAt+6], StateVersion+1)
				return resealState(c)
			},
			want: "unsupported maintainer-state version",
		},
		"bad state magic": {
			mutate: func(c []byte) []byte { c[secAt] ^= 0xFF; return c },
			want:   "magic",
		},
		"mode tag unknown": {
			mutate: func(c []byte) []byte { c[secAt+6] = 9; return resealState(c) },
			want:   "mode tag",
		},
		"evidence/CSR mismatch": {
			mutate: func(c []byte) []byte {
				binary.LittleEndian.PutUint32(c[secAt+8:secAt+12], 999)
				return resealState(c)
			},
			want: "snapshot graph has",
		},
		"nonzero padding": {
			mutate: func(c []byte) []byte {
				// The graph part of this case ends 4 bytes before the 8-aligned
				// section start; scribble on the pad.
				c[secAt-1] = 0xAA
				return c
			},
			want: "padding",
		},
	}
	for name, tc := range cases {
		c := tc.mutate(append([]byte(nil), valid...))
		if _, _, err := DecodeSnapshot(c); err != nil {
			t.Errorf("%s: graph part no longer decodes: %v", name, err)
			continue
		}
		_, err := DecodeSnapshotState(c)
		if err == nil {
			t.Errorf("%s: corrupt state accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
}

// TestCheckpointWithStateStoreCycle drives the full store lifecycle: create
// (v1), checkpoint with state (v2), reopen → the recovered state imports and
// matches the checkpointed maintainer, and the WAL tail appended after the
// checkpoint is handed back for replay on top of it.
func TestCheckpointWithStateStoreCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	g, st := buildStateCase(t, 1)
	m0, err := dynamic.NewMaintainerFromState(g, st.Local)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Create(dir, g, SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatches(one(true, [][2]int32{{1, 3}})); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointFull(g, SnapshotMeta{Seq: s.Seq()}, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatches(one(false, [][2]int32{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StateErr != nil {
		t.Fatalf("state decode error: %v", rec.StateErr)
	}
	if rec.State == nil || rec.State.Local == nil {
		t.Fatal("checkpointed maintainer state not recovered")
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Insert {
		t.Fatalf("tail = %+v, want the one post-checkpoint delete", rec.Tail)
	}
	m1, err := dynamic.NewMaintainerFromState(rec.Graph, rec.State.Local)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < rec.Graph.NumVertices(); v++ {
		if m0.CB(v) != m1.CB(v) {
			t.Fatalf("recovered CB(%d) = %v, want %v", v, m1.CB(v), m0.CB(v))
		}
	}
}
