package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parse reads exposition lines back: name{k="v",…} value, or name value.
// Label values here hold no escapes.
func parse(t *testing.T, text string) []sample {
	t.Helper()
	var out []sample
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		series, value, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		s := sample{name: series, labels: map[string]string{}, value: v}
		if name, rest, ok := strings.Cut(series, "{"); ok {
			s.name = name
			body, ok := strings.CutSuffix(rest, "}")
			if !ok {
				t.Fatalf("unclosed label set in %q", line)
			}
			for _, kv := range strings.Split(body, ",") {
				k, q, ok := strings.Cut(kv, "=")
				val, err := strconv.Unquote(q)
				if !ok || err != nil {
					t.Fatalf("bad label %q in %q", kv, line)
				}
				s.labels[k] = val
			}
		}
		out = append(out, s)
	}
	return out
}

// TestHistogramBucketsCumulative: every bound is inclusive, each bucket
// counts the observations at or below its bound, +Inf and _count count
// all of them, and _sum is their total in seconds.
func TestHistogramBucketsCumulative(t *testing.T) {
	var h Histogram
	obs := []time.Duration{-time.Second, 0, 10 * time.Microsecond, 10*time.Microsecond + 1,
		20 * time.Microsecond, 3 * time.Millisecond, time.Second, bound(buckets - 1), bound(buckets-1) + 1, time.Hour}
	var sum time.Duration
	for _, d := range obs {
		h.Observe(d)
		sum += max(d, 0)
	}
	samples := parse(t, string(h.AppendText(nil, "lat_seconds", `g="a"`)))
	if len(samples) != buckets+3 {
		t.Fatalf("%d samples, want %d buckets + +Inf + sum + count", len(samples), buckets+1)
	}
	for i, s := range samples[:buckets+1] {
		want := 0
		for _, d := range obs {
			if i == buckets || max(d, 0) <= bound(i) {
				want++
			}
		}
		le := "+Inf"
		if i < buckets {
			le = strconv.FormatFloat(bound(i).Seconds(), 'g', -1, 64)
		}
		if s.name != "lat_seconds_bucket" || s.labels["g"] != "a" || s.labels["le"] != le || s.value != float64(want) {
			t.Fatalf("bucket %d = %+v, want le=%s count %d", i, s, le, want)
		}
	}
	if s := samples[buckets+1]; s.name != "lat_seconds_sum" || s.labels["g"] != "a" || s.value != sum.Seconds() {
		t.Fatalf("sum sample %+v, want %v", s, sum.Seconds())
	}
	if s := samples[buckets+2]; s.name != "lat_seconds_count" || s.value != float64(len(obs)) {
		t.Fatalf("count sample %+v, want %d", s, len(obs))
	}
}

// TestHistogramTextParsesBack: the exposition reads back as a well-formed
// histogram family — ascending le bounds ending in +Inf, non-decreasing
// cumulative counts, _count equal to the +Inf bucket — with and without
// labels, and an empty histogram renders all zeros.
func TestHistogramTextParsesBack(t *testing.T) {
	var h Histogram
	for i := range 1000 {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	var empty Histogram
	for _, c := range []struct {
		h      *Histogram
		labels string
	}{{&h, `graph="g",algo="opt"`}, {&h, ""}, {&empty, `graph="g"`}} {
		samples := parse(t, string(c.h.AppendText(nil, "x_seconds", c.labels)))
		prevLE, prev := -1.0, 0.0
		for _, s := range samples[:buckets+1] {
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil || le <= prevLE || s.value < prev {
				t.Fatalf("labels %q: bucket %+v after le %v count %v", c.labels, s, prevLE, prev)
			}
			prevLE, prev = le, s.value
		}
		if !math.IsInf(prevLE, 1) {
			t.Fatalf("labels %q: last bucket le=%v, want +Inf", c.labels, prevLE)
		}
		count := samples[buckets+2]
		if count.name != "x_seconds_count" || count.value != prev || len(count.labels) != strings.Count(c.labels, "=") {
			t.Fatalf("labels %q: count %+v, +Inf bucket %v", c.labels, count, prev)
		}
		if c.h == &empty && (prev != 0 || samples[buckets+1].value != 0) {
			t.Fatalf("empty histogram renders %v observations", prev)
		}
	}
}

// TestHistogramConcurrentObserve: Observe from many goroutines while a
// scrape renders loses no observation (run it under -race).
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, each = 4, 5000
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 50 {
			h.AppendText(nil, "c_seconds", "")
		}
	}()
	wg.Wait()
	<-done
	samples := parse(t, string(h.AppendText(nil, "c_seconds", "")))
	n := workers * each
	wantSum := time.Duration(n*(n-1)/2) * time.Microsecond
	if c := samples[buckets+2].value; c != float64(n) {
		t.Fatalf("count %v, want %d", c, n)
	}
	if s := samples[buckets+1].value; s != wantSum.Seconds() {
		t.Fatalf("sum %v s, want %v", s, wantSum.Seconds())
	}
}
