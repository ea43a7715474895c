package ship

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// testSnapshot encodes a small valid snapshot image folding seq.
func testSnapshot(t *testing.T, seq uint64) []byte {
	t.Helper()
	g, err := graph.FromCSR([]int64{0, 2, 4, 6}, []int32{1, 2, 0, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeSnapshot(g, store.SnapshotMeta{Seq: seq})
}

// batchRange encodes WAL records carrying sequences [from, to].
func batchRange(from, to uint64) []byte {
	var buf []byte
	for s := from; s <= to; s++ {
		buf = append(buf, store.EncodeBatch(store.Batch{
			Seq: s, Insert: true, Edges: [][2]int32{{int32(s), int32(s + 1)}},
		})...)
	}
	return buf
}

// fakeSource is an in-memory leader: one graph, a checkpoint image, and the
// current segment's record bytes. chunk>0 caps WALTail responses to simulate
// chunks that end mid-record.
type fakeSource struct {
	name    string
	snap    []byte
	segment uint64
	seq     uint64
	wal     []byte // headerless record bytes of the current segment
	chunk   int
}

func (s *fakeSource) ShipGraphs() []string { return []string{s.name} }

func (s *fakeSource) ShipStatus(g string) (Status, error) {
	if g != s.name {
		return Status{}, ErrUnknownGraph
	}
	return Status{Segment: s.segment, Seq: s.seq, WALBytes: int64(store.WALHeaderLen + len(s.wal))}, nil
}

func (s *fakeSource) ShipCheckpoint(g string) ([]byte, error) {
	if g != s.name {
		return nil, ErrUnknownGraph
	}
	return s.snap, nil
}

func (s *fakeSource) ShipWALTail(g string, segment uint64, offset int64) ([]byte, uint64, error) {
	if g != s.name {
		return nil, 0, ErrUnknownGraph
	}
	if segment != s.segment {
		return nil, 0, ErrSegmentGone
	}
	file := append(make([]byte, store.WALHeaderLen), s.wal...)
	if offset > int64(len(file)) {
		return nil, 0, fmt.Errorf("offset %d beyond segment end %d", offset, len(file))
	}
	data := file[offset:]
	if s.chunk > 0 && len(data) > s.chunk {
		data = data[:s.chunk]
	}
	return data, s.seq, nil
}

// checkpoint folds everything through seq into a fresh snapshot and starts a
// new empty segment, exactly like the leader's maybeCheckpoint.
func (s *fakeSource) checkpoint(t *testing.T, seq uint64) {
	s.snap = testSnapshot(t, seq)
	s.segment = seq
	s.wal = nil
	if seq > s.seq {
		s.seq = seq
	}
}

// fakeTarget records installs and applied sequences, enforcing the same
// continuity contract the real registry does.
type fakeTarget struct {
	installs  int
	seq       uint64
	have      bool
	applied   []uint64
	leaderSeq uint64
	caughtUp  bool
}

func (t *fakeTarget) ReplicaSeq(string) (uint64, bool) { return t.seq, t.have }

func (t *fakeTarget) InstallReplica(_ string, snap []byte) error {
	meta, err := store.PeekSnapshotMeta(snap)
	if err != nil {
		return err
	}
	t.installs++
	t.seq = meta.Seq
	t.have = true
	t.applied = nil
	return nil
}

func (t *fakeTarget) ApplyReplica(_ string, batches []store.Batch) error {
	for _, b := range batches {
		if b.Seq != t.seq+1 {
			return fmt.Errorf("apply seq %d after %d", b.Seq, t.seq)
		}
		t.seq = b.Seq
		t.applied = append(t.applied, b.Seq)
	}
	return nil
}

func (t *fakeTarget) NoteReplica(_ string, leaderSeq uint64, caughtUp bool) {
	t.leaderSeq, t.caughtUp = leaderSeq, caughtUp
}

// newPair wires source → handler → httptest server → client → follower.
func newPair(t *testing.T, src *fakeSource, tgt *fakeTarget, opts ...FollowerOption) (*Follower, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(src))
	t.Cleanup(srv.Close)
	return NewFollower(NewClient(srv.URL, srv.Client()), tgt, opts...), srv
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 2), segment: 2, seq: 6, wal: batchRange(3, 6)}
	tgt := &fakeTarget{}
	f, _ := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.installs != 1 || tgt.seq != 6 || !tgt.caughtUp || tgt.leaderSeq != 6 {
		t.Fatalf("installs=%d seq=%d caughtUp=%v leaderSeq=%d", tgt.installs, tgt.seq, tgt.caughtUp, tgt.leaderSeq)
	}
	if want := []uint64{3, 4, 5, 6}; len(tgt.applied) != len(want) {
		t.Fatalf("applied %v, want %v", tgt.applied, want)
	}
	// Idle pass: no new records, still caught up, nothing re-applied.
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.installs != 1 || len(tgt.applied) != 4 {
		t.Fatalf("idle pass mutated state: installs=%d applied=%v", tgt.installs, tgt.applied)
	}
}

// TestFollowerTornChunks: responses capped below record boundaries must never
// produce an error or a skipped record — the cursor only advances by complete
// records and the follower converges across fetches.
func TestFollowerTornChunks(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 5, wal: batchRange(1, 5)}
	recLen := len(store.EncodeBatch(store.Batch{Seq: 1, Insert: true, Edges: [][2]int32{{1, 2}}}))
	src.chunk = recLen + 3 // every chunk ends mid-record
	tgt := &fakeTarget{}
	f, _ := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.seq != 5 || !tgt.caughtUp {
		t.Fatalf("seq=%d caughtUp=%v after torn-chunk tailing", tgt.seq, tgt.caughtUp)
	}

	// A chunk too small for even one record stalls (zero progress) without
	// erroring or spinning; a later pass with more data resumes cleanly.
	src.seq, src.wal = 7, append(src.wal, batchRange(6, 7)...)
	src.chunk = 5
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.seq != 5 || tgt.caughtUp {
		t.Fatalf("stalled pass advanced: seq=%d caughtUp=%v", tgt.seq, tgt.caughtUp)
	}
	src.chunk = 0
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.seq != 7 || !tgt.caughtUp {
		t.Fatalf("resume failed: seq=%d caughtUp=%v", tgt.seq, tgt.caughtUp)
	}
}

// TestFollowerSegmentRollover: a leader checkpoint invalidates the tailed
// segment; the follower resyncs onto the new one without re-installing.
func TestFollowerSegmentRollover(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 4, wal: batchRange(1, 4)}
	tgt := &fakeTarget{}
	f, _ := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	src.checkpoint(t, 4)
	src.seq, src.wal = 6, batchRange(5, 6)
	if err := f.SyncOnce(context.Background()); err != nil { // hits 410, schedules resync
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err != nil { // resyncs and tails
		t.Fatal(err)
	}
	if tgt.installs != 1 || tgt.seq != 6 || !tgt.caughtUp {
		t.Fatalf("installs=%d seq=%d caughtUp=%v; want resync without re-install", tgt.installs, tgt.seq, tgt.caughtUp)
	}
}

// TestFollowerCheckpointAhead: when the leader's segment starts beyond what
// the follower applied, only a fresh checkpoint restores a common prefix.
// Each step is one line on slog's default logger, the re-bootstrap at Warn.
func TestFollowerCheckpointAhead(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 3, wal: batchRange(1, 3)}
	tgt := &fakeTarget{}
	f, _ := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer // SyncOnce logs on this goroutine only
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	src.checkpoint(t, 10) // leader advanced 4..10 and checkpointed while we were away
	src.seq, src.wal = 12, batchRange(11, 12)
	if err := f.SyncOnce(context.Background()); err != nil { // 410 → resync pending
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err != nil { // resync → re-bootstrap → tail
		t.Fatal(err)
	}
	if tgt.installs != 2 || tgt.seq != 12 || !tgt.caughtUp {
		t.Fatalf("installs=%d seq=%d caughtUp=%v; want checkpoint re-bootstrap", tgt.installs, tgt.seq, tgt.caughtUp)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	want := [][]string{
		{"level=INFO", `msg="follower segment gone"`, "graph=g", "seq=3", "segment=0"},
		{"level=WARN", `msg="follower re-bootstrapping"`, "graph=g", "seq=3", "segment=10", "leader_seq=12"},
		{"level=INFO", `msg="follower bootstrapped"`, "graph=g", "seq=10", "segment=10"},
	}
	if len(lines) != len(want) {
		t.Fatalf("%d log lines, want %d: %q", len(lines), len(want), lines)
	}
	for i, attrs := range want {
		for _, a := range attrs {
			if !strings.Contains(lines[i], a) {
				t.Errorf("log line %q lacks %q", lines[i], a)
			}
		}
	}
}

// TestFollowerCorruptStream: a record failing its CRC on the wire is a hard
// protocol error — the follower reports it and re-bootstraps from a
// checkpoint on the next pass rather than trusting anything downstream.
func TestFollowerCorruptStream(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 3, wal: batchRange(1, 3)}
	src.wal[len(src.wal)-2] ^= 0x20
	tgt := &fakeTarget{}
	f, _ := newPair(t, src, tgt)
	err := f.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("corrupt stream accepted")
	}
	if tgt.seq != 2 { // the two records before the corruption applied fine
		t.Fatalf("seq=%d before corruption handling, want 2", tgt.seq)
	}
	src.checkpoint(t, 3)
	src.seq, src.wal = 5, batchRange(4, 5)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.installs != 2 || tgt.seq != 5 || !tgt.caughtUp {
		t.Fatalf("installs=%d seq=%d caughtUp=%v; want checkpoint re-bootstrap", tgt.installs, tgt.seq, tgt.caughtUp)
	}
}

// TestFollowerAdoptsLocalState: a follower restarting over an existing data
// directory resumes from its applied sequence — no re-install, no re-apply
// of records it already holds.
func TestFollowerAdoptsLocalState(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 2), segment: 2, seq: 6, wal: batchRange(3, 6)}
	tgt := &fakeTarget{seq: 4, have: true}
	f, _ := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.installs != 0 || tgt.seq != 6 || !tgt.caughtUp {
		t.Fatalf("installs=%d seq=%d caughtUp=%v; want adoption without install", tgt.installs, tgt.seq, tgt.caughtUp)
	}
	if want := []uint64{5, 6}; len(tgt.applied) != 2 || tgt.applied[0] != 5 {
		t.Fatalf("applied %v, want %v", tgt.applied, want)
	}
}

// TestFollowerLeaderRestart: the leader process dies and comes back at a new
// address; SetBase repoints the follower and tailing resumes where it left
// off (same segment, same offset).
func TestFollowerLeaderRestart(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 3, wal: batchRange(1, 3)}
	tgt := &fakeTarget{}
	f, first := newPair(t, src, tgt)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	first.Close()
	if err := f.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync against a dead leader must fail")
	}
	src.seq, src.wal = 5, append(src.wal, batchRange(4, 5)...)
	second := httptest.NewServer(NewHandler(src))
	defer second.Close()
	f.client.SetBase(second.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tgt.installs != 1 || tgt.seq != 5 || !tgt.caughtUp {
		t.Fatalf("installs=%d seq=%d caughtUp=%v after leader restart", tgt.installs, tgt.seq, tgt.caughtUp)
	}
}

// TestFollowerLogsOutageOnce: ten polls against a dead leader log one Error
// line, the first; the listing that reaches the leader again logs one Info
// line with the count of failed polls, and a later outage logs afresh.
func TestFollowerLogsOutageOnce(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 3, wal: batchRange(1, 3)}
	f, first := newPair(t, src, &fakeTarget{})
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer // SyncOnce logs on this goroutine only
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	lines := func() []string {
		defer log.Reset()
		return strings.Split(strings.TrimSpace(log.String()), "\n")
	}
	first.Close()
	outage := func() {
		for range 10 {
			if err := f.SyncOnce(context.Background()); err == nil {
				t.Fatal("sync against a dead leader must fail")
			}
		}
		if l := lines(); len(l) != 1 || !strings.Contains(l[0], "level=ERROR") || !strings.Contains(l[0], `msg="follower listing failed"`) {
			t.Fatalf("ten failed polls logged %q, want one Error line", l)
		}
	}
	outage()
	second := httptest.NewServer(NewHandler(src))
	defer second.Close()
	f.client.SetBase(second.URL)
	for range 2 {
		if err := f.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if l := lines(); len(l) != 1 || !strings.Contains(l[0], "level=INFO") || !strings.Contains(l[0], `msg="follower leader reachable"`) || !strings.Contains(l[0], "failed_polls=10") {
		t.Fatalf("recovery logged %q, want one Info line counting 10 failed polls", l)
	}
	second.Close()
	outage()
}

// TestProtocolErrorMapping: sentinels survive the HTTP round trip.
func TestProtocolErrorMapping(t *testing.T) {
	src := &fakeSource{name: "g", snap: testSnapshot(t, 0), segment: 0, seq: 0}
	srv := httptest.NewServer(NewHandler(src))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	if _, err := c.Status(ctx, "nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, _, err := c.WALTail(ctx, "g", 99, int64(store.WALHeaderLen)); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("stale segment: %v", err)
	}
	if _, _, err := c.WALTail(ctx, "g", 0, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	names, err := c.Graphs(ctx)
	if err != nil || len(names) != 1 || names[0] != "g" {
		t.Fatalf("graphs = %v, %v", names, err)
	}
	st, err := c.Status(ctx, "g")
	if err != nil || st.WALBytes != int64(store.WALHeaderLen) {
		t.Fatalf("status = %+v, %v", st, err)
	}
}
