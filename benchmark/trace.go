package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public surface, recorded by the
// harness around the call (nothing inside the program is instrumented).
// The spans of one scripted op share Op; Parent links a span to the
// higher layer's span it explains. Because each layer runs on its own twin
// state (see replay.go) a child does not nest inside its parent in time —
// it follows it — so self time is arithmetic on durations, not interval
// subtraction.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for an op's root span
	Op      int    `json:"op"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: do still runs and times the call but records nothing, so
// the same stage code serves the untraced end-to-end run.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens a scripted op and returns its id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// do times fn as one span and returns the span id (0 when off) and the
// duration.
func (t *tracer) do(name, class string, op, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	if t == nil {
		return 0, end.Sub(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Class: class, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id, end.Sub(start)
}

// setClass relabels every span of op; the replay learns whether a read hit
// or missed the cache only after its spans are recorded.
func (t *tracer) setClass(op int, class string) {
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op == op; i-- {
		t.spans[i].Class = class
	}
}

// selfTimes returns, per span id, the span's duration minus the durations
// of its direct children. A negative value means the lower twin ran slower
// than the layer above it on that op (noise between twins); it is kept, so
// that selfs always sum to the root.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerRow is one span name's totals inside an op class.
type layerRow struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// classBreakdown attributes one op class's time: Parent is the total of
// its root spans, Children the self time of every span below the serving
// twins (names not starting with "server."), Residual what stays with the
// serving twins. Children + Residual == Parent by construction.
type classBreakdown struct {
	Class    string
	Ops      int
	ParentNs int64
	ChildNs  int64
	Residual int64
	Rows     []layerRow
}

func (c classBreakdown) residualShare() float64 {
	return ratio(float64(c.Residual), float64(c.ParentNs))
}

// residualFlag is the share of an op class's time the serving twins may
// keep unattributed before the class is flagged.
const residualFlag = 0.15

func breakdown(spans []span) []classBreakdown {
	self := selfTimes(spans)
	byClass := map[string]*classBreakdown{}
	rows := map[string]map[string]*layerRow{}
	for _, s := range spans {
		c := byClass[s.Class]
		if c == nil {
			c = &classBreakdown{Class: s.Class}
			byClass[s.Class] = c
			rows[s.Class] = map[string]*layerRow{}
		}
		r := rows[s.Class][s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Class][s.Name] = r
		}
		r.Count++
		r.TotalNs += s.dur()
		r.SelfNs += self[s.ID]
		if s.Parent == 0 {
			c.Ops++
			c.ParentNs += s.dur()
		}
		if !strings.HasPrefix(s.Name, "server.") {
			c.ChildNs += self[s.ID]
		}
	}
	out := make([]classBreakdown, 0, len(byClass))
	for name, c := range byClass {
		c.Residual = c.ParentNs - c.ChildNs
		for _, r := range rows[name] {
			c.Rows = append(c.Rows, *r)
		}
		sort.Slice(c.Rows, func(i, j int) bool { return c.Rows[i].TotalNs > c.Rows[j].TotalNs })
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// selfMedianUs is the median self time (µs) of the spans called name in
// the given classes; an empty class list means every class.
func selfMedianUs(spans []span, name string, classes ...string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name != name || !inClasses(s.Class, classes) {
			continue
		}
		xs = append(xs, float64(self[s.ID])/1e3)
	}
	return median(xs)
}

// durMedianUs is selfMedianUs over whole durations.
func durMedianUs(spans []span, name string, classes ...string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && inClasses(s.Class, classes) {
			xs = append(xs, float64(s.dur())/1e3)
		}
	}
	return median(xs)
}

func inClasses(c string, classes []string) bool {
	if len(classes) == 0 {
		return true
	}
	for _, x := range classes {
		if strings.HasPrefix(c, x) {
			return true
		}
	}
	return false
}

func printBreakdown(w io.Writer, bs []classBreakdown) {
	fmt.Fprintf(w, "\nlayer replay: per op class, parent = root span total, children = self time below the serving twins, residual = what stays in server.*\n")
	for _, c := range bs {
		flag := ""
		switch {
		case c.ChildNs == 0:
			flag = "  (no layer below the serving twins)"
		case c.residualShare() > residualFlag:
			flag = "  RESIDUAL>15%"
		}
		fmt.Fprintf(w, "  %-22s ops=%-5d parent=%10.3f ms  children=%10.3f ms  residual=%10.3f ms (%5.1f%%)%s\n",
			c.Class, c.Ops, float64(c.ParentNs)/1e6, float64(c.ChildNs)/1e6, float64(c.Residual)/1e6, 100*c.residualShare(), flag)
		for _, r := range c.Rows {
			fmt.Fprintf(w, "      %-22s n=%-5d total=%10.3f ms  self=%10.3f ms\n", r.Name, r.Count, float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6)
		}
	}
}

// traceFile is what trace.json holds.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    string  `json:"scale"`
	Env      envInfo `json:"env"`
	Spans    []span  `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
