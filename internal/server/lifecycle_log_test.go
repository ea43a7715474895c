package server

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

// logLines captures slog's default logger for the rest of a test through
// a text handler it installs, restoring the previous default after.
type logLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// with returns the captured lines whose message is msg.
func (l *logLines) with(msg string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range strings.Split(l.buf.String(), "\n") {
		if strings.Contains(line, "msg=\""+msg+"\"") {
			out = append(out, line)
		}
	}
	return out
}

func captureLog(t *testing.T) *logLines {
	t.Helper()
	l := &logLines{}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(l, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return l
}

// requireLine fails unless exactly one captured line has message msg, and
// that line carries every attribute in attrs.
func requireLine(t *testing.T, l *logLines, msg string, attrs ...string) {
	t.Helper()
	lines := l.with(msg)
	if len(lines) != 1 {
		t.Fatalf("%d %q lines, want 1: %q", len(lines), msg, lines)
	}
	for _, a := range attrs {
		if !strings.Contains(lines[0], a) {
			t.Fatalf("%q line %q lacks %q", msg, lines[0], a)
		}
	}
}

// TestLifecycleLogLines: each lifecycle event of a graph is one slog line on
// the default logger — a recovery with its recover_path and recover_reason,
// on the fast and the rebuild path; a poisoning with its cause; a
// follower's InstallReplica.
func TestLifecycleLogLines(t *testing.T) {
	t.Run("recovery", func(t *testing.T) {
		fast, rebuild := t.TempDir(), t.TempDir()
		checkpointedDir(t, fast, ModeLocal, 11, 7)
		reg := durableRegistry(rebuild)
		if _, err := reg.Add("g", gen.BarabasiAlbert(50, 3, 3), ModeLazy, 0); err != nil {
			t.Fatal(err)
		}
		reg.Close()

		l := captureLog(t)
		reborn, _ := recoverDir(t, fast)
		reborn.Close()
		requireLine(t, l, "graph recovered", "graph=g", "mode=local", "recover_path=fast", `recover_reason=""`)
		l = captureLog(t)
		reborn, _ = recoverDir(t, rebuild)
		reborn.Close()
		requireLine(t, l, "graph recovered", "graph=g", "mode=lazy", "recover_path=rebuild",
			`recover_reason="no maintainer-state section in snapshot"`)
	})

	t.Run("poisoning", func(t *testing.T) {
		l := captureLog(t)
		boom := errors.New("injected disk failure")
		reg := NewRegistry(WithCrashHook(func(_, point string) error {
			if point == crashBeforeApply {
				return boom
			}
			return nil
		}))
		defer reg.Close()
		if _, err := reg.Add("g", gen.BarabasiAlbert(50, 3, 3), ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
		for range 2 { // the second write fails on the poisoned pipeline, unlogged
			if _, err := reg.applyEdges("g", [][2]int32{{0, 49}}, false); !errors.Is(err, ErrStorage) {
				t.Fatalf("write: %v, want a storage failure", err)
			}
		}
		requireLine(t, l, "graph poisoned", "graph=g", `cause="injected disk failure"`)
	})

	t.Run("install replica", func(t *testing.T) {
		p := newShipPair(t, t.TempDir(), "")
		if _, err := p.leader.Add("g", gen.BarabasiAlbert(50, 3, 3), ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
		l := captureLog(t)
		p.syncUntilCaughtUp(t, "g")
		requireLine(t, l, "replica installed", "graph=g")
	})
}
