package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opResult is one operation's outcome. skip marks an operation that
// never started because the window closed first; it is not attempted.
type opResult struct {
	lat  time.Duration
	kind string // workload-specific class, e.g. "hit" or "miss"
	err  error  // a failed call or a failed output check
	skip bool
}

// loopResult is a closed-loop window's record.
type loopResult struct {
	lat     []time.Duration // successful operations only
	scale   []float64       // per op in lat, its calibration factor (calScale)
	kinds   []string
	traced  []bool
	failed  int
	elapsed time.Duration
	spans   []*spanLog // one per caller
}

func (r *loopResult) attempted() int { return len(r.lat) + r.failed }

// calibrated is each operation's latency at the reference speed.
func (r *loopResult) calibrated() []time.Duration {
	out := make([]time.Duration, len(r.lat))
	for i, d := range r.lat {
		out[i] = time.Duration(float64(d) * r.scale[i])
	}
	return out
}

// calThroughput is the factor that takes the window's throughput to
// the reference speed: busy time as measured over busy time at the
// reference speed.
func (r *loopResult) calThroughput() float64 {
	var raw, ref float64
	for i, d := range r.lat {
		raw += float64(d)
		ref += float64(d) * r.scale[i]
	}
	return raw / ref
}

// runLoop drives s's callers in a closed loop: each starts its next
// operation when the last one returns, until window has passed. An
// operation is traced when traced (if not nil) holds for the time it
// starts at, measured from the window's start. Each caller calibrates
// the host's speed between operations, at most every calEvery, on as
// many threads as its operations use, and once more at the end.
func runLoop(ctx context.Context, s session, window time.Duration, traced func(time.Duration) bool) *loopResult {
	n := s.workers()
	threads := max(1, runtime.GOMAXPROCS(0)/n)
	start := time.Now()
	wctx, cancel := context.WithDeadline(ctx, start.Add(window))
	defer cancel()
	type workerRec struct {
		lat    []time.Duration
		calIdx []int // per op in lat, the calibration before it
		cals   []calPoint
		kinds  []string
		traced []bool
		failed int
		errs   []error
	}
	recs := make([]workerRec, n)
	logs := make([]*spanLog, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		logs[w] = newSpanLog()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := &recs[w]
			cal := func() {
				d := calibrate(threads)
				rec.cals = append(rec.cals, calPoint{at: time.Since(processStart), d: d})
			}
			cal()
			for i := 0; wctx.Err() == nil; i++ {
				if time.Since(processStart)-rec.cals[len(rec.cals)-1].at >= calEvery {
					cal()
				}
				var sp *spanLog
				if traced != nil && traced(time.Since(start)) {
					sp = logs[w]
				}
				r := s.op(wctx, w, i, sp)
				if r.skip {
					break
				}
				if r.err != nil {
					rec.failed++
					rec.errs = append(rec.errs, r.err)
					continue
				}
				rec.lat = append(rec.lat, r.lat)
				rec.calIdx = append(rec.calIdx, len(rec.cals)-1)
				rec.kinds = append(rec.kinds, r.kind)
				rec.traced = append(rec.traced, sp != nil)
			}
			cal()
		}(w)
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start), spans: logs}
	for _, rec := range recs {
		for _, k := range rec.calIdx {
			out.scale = append(out.scale, calScale(rec.cals[k], rec.cals[k+1]))
		}
		out.lat = append(out.lat, rec.lat...)
		out.kinds = append(out.kinds, rec.kinds...)
		out.traced = append(out.traced, rec.traced...)
		out.failed += rec.failed
		reportErrors(rec.errs)
	}
	return out
}

// reportErrors prints the first few failures to stderr.
func reportErrors(errs []error) {
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failures\n", len(errs)-i)
			return
		}
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

// alternate traces every other chunk of a window.
func alternate(chunk time.Duration) func(time.Duration) bool {
	return func(d time.Duration) bool { return (d/chunk)%2 == 1 }
}

// modeSeconds is how long the traced (or untraced) chunks of a window
// of length elapsed lasted, with chunks traced as alternate(chunk).
func modeSeconds(elapsed, chunk time.Duration, traced bool) float64 {
	full := elapsed / chunk
	t := time.Duration(0)
	for k := time.Duration(0); k <= full; k++ {
		if (k%2 == 1) != traced {
			continue
		}
		d := chunk
		if k == full {
			d = elapsed - full*chunk
		}
		t += d
	}
	return t.Seconds()
}

// ---- spans ----

// span is one timed call into a layer. parent is the index of the
// enclosing span in the same log, or -1.
type span struct {
	name       string
	start, end time.Duration // since processStart
	parent     int
	work       int64 // units of work the call did (instructions, lookups, ...)
}

// spanLog is one goroutine's span arena. A nil *spanLog records
// nothing, so untraced operations pay only a nil check.
type spanLog struct {
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(processStart), parent: parent})
	return len(l.spans) - 1
}

// end closes span i, crediting it with work units.
func (l *spanLog) end(i int, work int64) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(processStart)
	l.spans[i].work = work
}

// perWork is the median over spans named name of duration per work
// unit, in nanoseconds, and the number of spans.
func perWork(logs []*spanLog, name string) (float64, int) {
	var v []float64
	for _, l := range logs {
		for _, s := range l.spans {
			if s.name == name && s.work > 0 && s.end > 0 {
				v = append(v, float64(s.end-s.start)/float64(s.work))
			}
		}
	}
	return median(v), len(v)
}

// ---- order statistics ----

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantile is the highest of p90, p99 and p99.9 with at least ten
// samples beyond it: its value, its name, and the count beyond it.
// Under 100 samples it is the maximum.
func tailQuantile(v []float64) (float64, string, int) {
	best, name, beyond := quantile(v, 1), "max", 0
	for _, t := range []struct {
		q    float64
		name string
	}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}} {
		b := len(v) - int(math.Ceil(t.q*float64(len(v))))
		if b < 10 {
			break
		}
		best, name, beyond = quantile(v, t.q), t.name, b
	}
	return best, name, beyond
}

func toMillis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e6
	}
	return out
}

func roundAll(v []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*p) / p
	}
	return out
}
