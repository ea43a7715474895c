package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/server"
)

// The load generator: one process, two goroutines, two connections. Each
// serve stage pairs a closed-loop client (next request only after the
// previous answer) with a paced open-loop client whose latency runs from
// the instant a request was due, so a stall is charged to every request it
// delays, and whose lateness is reported.

// clientSamples is what one client goroutine measured.
type clientSamples struct {
	readMS    [numReadClasses][]float64
	insertMS  []float64 // durable ack latency of insert batches
	deleteMS  []float64 // of delete batches
	lateMS    []float64 // paced client only: send instant minus due instant
	unitS     []float64 // closed-loop client only: wall seconds per unit of work (see unitRate)
	stallMS   []float64 // closed-loop writer only: the slowest ack of each checkpoint cycle
	attempted int
	failed    int
	batches   int // batches acked
	firstErr  string
}

func (s *clientSamples) fail(format string, args ...any) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf(format, args...)
	}
}

func (s *clientSamples) allReads() []float64 {
	var out []float64
	for _, xs := range s.readMS {
		out = append(out, xs...)
	}
	return out
}

func (s *clientSamples) allWrites() []float64 {
	return append(append([]float64(nil), s.insertMS...), s.deleteMS...)
}

// unitRate is a closed-loop client's throughput as ops per unit over the
// median unit time, where a unit is a fixed, repeating piece of the script:
// one churn block of reads, or one checkpoint cycle of write batches. A
// plain count over wall time is a mean, so one burst of host noise moves
// it; the median unit keeps the stalls the script causes in every unit
// (recompute misses, the checkpoint) and drops the ones it does not.
func (s *clientSamples) unitRate(opsPerUnit int) float64 {
	return ratio(float64(opsPerUnit), median(s.unitS))
}

// read sends one scripted GET; from is when its latency starts.
func (s *clientSamples) read(cl *client, op readOp, from time.Time) {
	s.attempted++
	code, err := cl.get(gpath(op.path), nil)
	if err != nil || code != http.StatusOK {
		s.fail("GET %s: status %d, %v", op.path, code, err)
		return
	}
	s.readMS[op.class] = append(s.readMS[op.class], ms(time.Since(from)))
}

// encodeBatch is the request body of one edge batch.
func encodeBatch(b writeBatchOp) []byte {
	body, err := json.Marshal(server.EdgeBatch{Edges: b.edges})
	if err != nil {
		panic(err) // a slice of int32 pairs always encodes
	}
	return body
}

// write sends one durable edge batch and asserts every edge applied: the
// model guarantees inserts are non-edges and deletes live edges, so a
// short count is a wrong answer, not a script artefact. It returns the ack
// latency in ms, 0 for a failed batch.
func (s *clientSamples) write(cl *client, b writeBatchOp, body []byte, from time.Time) float64 {
	s.attempted++
	method := "POST"
	if !b.insert {
		method = "DELETE"
	}
	var res server.UpdateResult
	code, err := cl.do(method, gpath("/edges?ack=durable"), body, &res)
	lat := ms(time.Since(from))
	switch {
	case err != nil || code != http.StatusOK:
		s.fail("%s edges: status %d, %v", method, code, err)
		return 0
	case res.Applied != len(b.edges):
		s.fail("%s edges: applied %d of %d (%v)", method, res.Applied, len(b.edges), res.Errors)
		return 0
	}
	s.batches++
	if b.insert {
		s.insertMS = append(s.insertMS, lat)
	} else {
		s.deleteMS = append(s.deleteMS, lat)
	}
	return lat
}

// writeCycle sends one checkpoint cycle of the write script, closed loop,
// and records the cycle's wall time and its slowest ack.
func (s *clientSamples) writeCycle(cl *client, mdl *model, rng *rand.Rand) {
	t0 := time.Now()
	var slowest float64
	for i := 0; i < checkpointEvery; i++ {
		b := mdl.nextWriteBatch(rng, writeBatch, 0.5)
		slowest = max(slowest, s.write(cl, b, encodeBatch(b), time.Now()))
	}
	s.unitS = append(s.unitS, time.Since(t0).Seconds())
	s.stallMS = append(s.stallMS, slowest)
}

// paced calls send(due) at every i-th instant start+i*gap until the closed
// loop client closes done, sleeping until each is due. send draws its op
// itself (a few microseconds, charged to the request): drawing ahead would
// leave the model one batch ahead of the daemon when the stage ends.
func paced(start time.Time, done <-chan struct{}, gap time.Duration, s *clientSamples, send func(due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-done:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-done:
			return
		default:
		}
		late := time.Since(due)
		if late < 0 {
			late = 0
		}
		s.lateMS = append(s.lateMS, ms(late))
		send(due)
	}
}

// stageResult is one serve stage: what its two clients measured and the
// daemon's counters before and after.
type stageResult struct {
	closed, pacedC clientSamples
	warm           clientSamples // unmeasured warm-up requests; they still count as ops
	before, after  server.GraphStats
	procBefore     procStats
	procAfter      procStats
}

func (r *stageResult) attempted() int {
	return r.closed.attempted + r.pacedC.attempted + r.warm.attempted
}
func (r *stageResult) failed() int { return r.closed.failed + r.pacedC.failed + r.warm.failed }

// serveStage is one daemon under one stage's traffic. The daemon stays up
// for the whole measured phase and receives its traffic in slices; between
// its slices it idles while the other stages run, so the /stats and /proc
// deltas of begin..end are this stage's alone.
type serveStage struct {
	d   *daemon
	cl  *client
	mdl *model // the harness's record of the daemon's live edges

	closedRNG, pacedRNG *rand.Rand
	res                 stageResult
	spent               time.Duration // measured time used so far
}

func newServeStage(d *daemon, cl *client, g *graph.Graph, seed uint64, st stage) *serveStage {
	return &serveStage{d: d, cl: cl, mdl: newModel(g), closedRNG: stageRNG(seed, st), pacedRNG: stageRNG(seed+1, st)}
}

func (s *serveStage) stop() {
	s.cl.close()
	s.d.kill()
}

// begin runs the stage's unmeasured warm-up and takes the "before"
// readings. The read stage pays connection set-up and the daemon's first
// search allocations once per process, not per read. The write stage runs
// warmCycles checkpoint cycles: a freshly loaded daemon's first ones run two
// to three times slower than its steady state (heap growth, the initial
// snapshot's write-back).
func (s *serveStage) begin(st stage) (err error) {
	switch st {
	case stageRead:
		for _, op := range []readOp{topkOp(classHot, 10, ""), topkOp(classOpt, lazyK, "opt"), topkOp(classApprox, lazyK, "approx"), vertexOp(0)} {
			s.res.warm.read(s.cl, op, time.Now())
		}
	case stageWrite:
		for i := 0; i < warmCycles; i++ {
			s.res.warm.writeCycle(s.cl, s.mdl, s.closedRNG)
		}
	}
	if s.res.before, err = s.cl.stats(); err != nil {
		return err
	}
	s.res.procBefore = s.d.proc()
	return nil
}

// end takes the "after" readings.
func (s *serveStage) end() (err error) {
	s.res.procAfter = s.d.proc()
	s.res.after, err = s.cl.stats()
	return err
}

// slice runs the stage until it has used target of measured time in all:
// the closed-loop client repeats unit, the paced client calls send every
// gap. A unit that overruns one slice's share shortens a later slice's, so
// the stage's total stays at its share of the run.
func (s *serveStage) slice(target, gap time.Duration, send func(due time.Time), unit func()) {
	if s.spent >= target {
		return
	}
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paced(start, done, gap, &s.res.pacedC, send)
	}()
	for s.spent+time.Since(start) < target {
		unit()
	}
	close(done)
	wg.Wait()
	s.spent += time.Since(start)
}

// readSlice is the read stage's traffic: reader R closed loop over whole
// blocks of the churn mix, writer W paced at readWriteRate batches/s of
// readWriteBatch edges with durable ack.
func (s *serveStage) readSlice(target time.Duration) {
	r := &s.res
	s.slice(target, time.Second/readWriteRate,
		func(due time.Time) {
			b := s.mdl.nextWriteBatch(s.pacedRNG, readWriteBatch, 0)
			r.pacedC.write(s.cl, b, encodeBatch(b), due)
		},
		func() {
			t0 := time.Now()
			for _, op := range churnBlock(s.closedRNG, s.mdl.n) {
				r.closed.read(s.cl, op, time.Now())
			}
			r.closed.unitS = append(r.closed.unitS, time.Since(t0).Seconds())
		})
}

// writeSlice is the write stage's traffic: writer W closed loop over whole
// checkpoint cycles of writeBatch-edge batches (half the inserts take one
// endpoint degree-proportionally), reader R paced at writeReadRate reads/s.
func (s *serveStage) writeSlice(target time.Duration) {
	r := &s.res
	s.slice(target, time.Second/writeReadRate,
		func(due time.Time) { r.pacedC.read(s.cl, pacedRead(s.pacedRNG, s.mdl.n), due) },
		func() { r.closed.writeCycle(s.cl, s.mdl, s.closedRNG) })
}

// recoverStage is the SIGKILL/restart stage, on a durable daemon of its
// own so that a restart never cools the write stage's daemon.
type recoverStage struct {
	d       *daemon
	cl      *client
	mdl     *model
	rng     *rand.Rand
	scratch *ego.Scratch

	recoverMS []float64
	writes    clientSamples
}

func newRecoverStage(d *daemon, cl *client, g *graph.Graph, seed uint64) *recoverStage {
	return &recoverStage{d: d, cl: cl, mdl: newModel(g), rng: stageRNG(seed, stageRecover), scratch: ego.NewScratch(g.NumVertices())}
}

func (s *recoverStage) stop() {
	s.cl.close()
	s.d.kill()
}

// cycle is {recoverBatches more durable batches, SIGKILL, restart on the
// same data dir, first 200 on topk?k=10}. The clock starts just before the
// signal. After the restart the daemon must still hold every acked batch:
// wal_seq at least the acked count, the model's edge count, and a seeded
// sample of vertex scores equal to a from-scratch recompute on the model's
// live edges. The page cache survives SIGKILL, so this proves WAL replay,
// not fsync.
func (s *recoverStage) cycle(vertices int, c *checker) error {
	for b := 0; b < recoverBatches; b++ {
		op := s.mdl.nextWriteBatch(s.rng, writeBatch, 0.5)
		s.writes.write(s.cl, op, encodeBatch(op), time.Now())
	}
	s.cl.close()
	t0 := time.Now()
	s.d.kill()
	nd, ncl, err := s.d.restart()
	if err != nil {
		return fmt.Errorf("restart %d: %w", len(s.recoverMS)+1, err)
	}
	s.recoverMS = append(s.recoverMS, ms(time.Since(t0)))
	s.d, s.cl = nd, ncl
	i := len(s.recoverMS)

	var st server.GraphInfo
	code, err := s.cl.get(gpath(""), &st)
	if c.expect(err == nil && code == http.StatusOK, "info after restart %d: status %d, %v", i, code, err) {
		c.expect(st.WALSeq >= uint64(s.writes.batches), "restart %d: wal_seq %d below %d acked batches", i, st.WALSeq, s.writes.batches)
		c.expect(st.M == int64(len(s.mdl.live)), "restart %d: %d edges served, the model has %d", i, st.M, len(s.mdl.live))
	}
	g := s.mdl.graph()
	for j := 0; j < vertices; j++ {
		v := s.rng.Int31n(s.mdl.n)
		var vr server.VertexResult
		code, err := s.cl.get(gpath(vertexOp(v).path), &vr)
		if c.expect(err == nil && code == http.StatusOK, "restart %d: GET vertex %d: status %d, %v", i, v, code, err) {
			want := ego.EgoBetweenness(g, v, s.scratch)
			c.expect(closeScore(vr.CB, want), "restart %d: vertex %d serves %.12g, recompute gives %.12g", i, v, vr.CB, want)
		}
	}
	return nil
}
