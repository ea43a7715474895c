// Package obs holds the daemon's latency instruments: fixed exponential-
// bucket histograms whose Observe is atomic adds only — no lock, no
// allocation — rendered in the Prometheus text exposition format 0.0.4.
package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// buckets is the number of finite buckets. Bucket i counts observations of
// at most bound(i): 10 µs doubling to 10 µs·2²⁰ ≈ 10.5 s; anything longer
// counts in +Inf only.
const buckets = 21

const firstBound = 10 * time.Microsecond

// bound returns the inclusive upper bound of finite bucket i.
func bound(i int) time.Duration { return firstBound << i }

// Histogram is a fixed-bucket latency histogram. The zero value is ready to
// use; it must not be copied after first use.
type Histogram struct {
	counts [buckets + 1]atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sumNS  atomic.Int64
}

// Observe records one duration. A negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	i := 0
	if d > 0 {
		i = min(bits.Len64(uint64(d-1)/uint64(firstBound)), buckets)
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// AppendText appends the histogram's samples under family name — one
// cumulative name_bucket per bound, +Inf included, then name_sum in seconds
// and name_count — with labels (already escaped and comma-separated, or
// empty) on every sample. The caller writes the family's HELP and TYPE
// lines once. A scrape concurrent with Observe may see the sum lag the
// buckets by the observations in flight; the buckets and the count always
// agree.
func (h *Histogram) AppendText(b []byte, name, labels string) []byte {
	set := ""
	if labels != "" {
		set, labels = "{"+labels+"}", labels+","
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < buckets {
			le = strconv.FormatFloat(bound(i).Seconds(), 'g', -1, 64)
		}
		b = append(b, name+"_bucket{"+labels+`le="`+le+`"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name+"_sum"+set+" "...)
	b = strconv.AppendFloat(b, time.Duration(h.sumNS.Load()).Seconds(), 'g', -1, 64)
	b = append(b, "\n"+name+"_count"+set+" "...)
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}
