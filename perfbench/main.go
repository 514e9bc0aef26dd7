// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three closed-loop workloads in-process against the public
// APIs of storemlp, internal/sim, internal/trace/colv1, internal/epoch
// and internal/server, checks every operation's output, and prints its
// metrics. See README.md for the workloads, the metrics and the rules
// that keep them steady on a noisy host.
//
//	perfbench -workload sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the same workload with spans around every call into a layer and
// reports the per-layer ledger instead. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// session is one workload after set-up, ready to serve operations.
type session interface {
	// workers is the number of closed-loop callers.
	workers() int
	// op runs caller w's i-th operation and checks its output. ctx is
	// done at the end of the measured window; only waits for a partner
	// caller observe it, so an operation in flight always completes.
	op(ctx context.Context, w, i int, sp *spanLog) opResult
	// finish runs the checks that need the whole run and returns how
	// many operations they failed.
	finish(ctx context.Context) (int, error)
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, seed int64, dir string) (session, error)
}

var workloads = []workloadDef{
	{"sweep", newSweep},
	{"replay", newReplay},
	{"serve", newServe},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want sweep, replay or serve)", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark record's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics with a human-readable note each.
type report struct {
	res   result
	notes map[string]string
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}, notes: map[string]string{}}
}

// set records a metric. A quantity with no samples reads 0, and its
// note says so.
func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, note+" (no samples)"
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// print writes one line per metric, then the JSON record last.
func (r *report) print(f *os.File) error {
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(f, "%-28s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, replay or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 45, "length of the measured run in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() != 0 || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp := fingerprint()
	fmt.Printf("host %s\n", fp)
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its report.
func run(ctx context.Context, o options) (*report, error) {
	def, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(ctx, def, o.seed, dir, o.workdir, window)
	}
	return runPlain(ctx, def, o.seed, dir, window)
}

// setUp sets the workload up setupReps times, each in its own
// directory, and keeps the last session. The first set-up is timed from
// process start, so setup_s includes everything before the first
// timed operation. It returns each set-up's time as measured and at the
// reference speed. The host is calibrated after each set-up, and all
// set-ups take the mean of those calibrations: a set-up is too short a
// stretch, and replay's too much file I/O, for one set-up's own
// calibration to track its speed better than the average does.
func setUp(ctx context.Context, def workloadDef, seed int64, dir string) (session, []float64, []float64, error) {
	var s session
	var times []float64
	var calSum time.Duration
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		if s != nil {
			s.close()
		}
		d := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, nil, nil, err
		}
		var err error
		if s, err = def.setup(ctx, seed, d); err != nil {
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		calSum += setupCal().d
	}
	mean := calPoint{d: calSum / setupReps}
	scale := calScale(mean, mean)
	cal := make([]float64, len(times))
	for i, t := range times {
		cal[i] = t * scale
	}
	return s, times, cal, nil
}

// runPlain is the untraced run: set-up, the measured window, the
// whole-run checks, and the end-to-end metrics.
func runPlain(ctx context.Context, def workloadDef, seed int64, dir string, window time.Duration) (*report, error) {
	s, setupRaw, setupTimes, err := setUp(ctx, def, seed, dir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	lr := runLoop(ctx, s, window, nil)
	late, err := s.finish(ctx)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.res.Attempted = lr.attempted()
	rep.res.Failed = lr.failed + late
	rep.res.Correct = rep.res.Failed == 0 && rep.res.Attempted > 0
	rep.set("setup_s", median(setupTimes), "s",
		fmt.Sprintf("median of %d set-ups %v at the reference speed; as measured %v",
			len(setupTimes), roundAll(setupTimes, 4), roundAll(setupRaw, 4)))
	raw := float64(len(lr.lat)) / lr.elapsed.Seconds()
	rep.set("ops_per_s", raw*lr.calThroughput(), "1/s",
		fmt.Sprintf("%d ops by %d callers in %.2f s, at the reference speed; as measured %.4g",
			len(lr.lat), s.workers(), lr.elapsed.Seconds(), raw))
	ms, rawMs := toMillis(lr.calibrated()), toMillis(lr.lat)
	rep.set("op_p50_ms", quantile(ms, 0.5), "ms",
		fmt.Sprintf("p50 of %d ops at the reference speed; as measured %.4g", len(ms), quantile(rawMs, 0.5)))
	tail, name, beyond := tailQuantile(ms)
	rawTail, _, _ := tailQuantile(rawMs)
	rep.set("op_tail_ms", tail, "ms", fmt.Sprintf("%s of %d ops (%d beyond it) at the reference speed; as measured %.4g",
		name, len(ms), beyond, rawTail))
	rep.set("peak_rss_mb", peakRSSMB(), "MB", "process peak resident set (getrusage maxrss)")
	return rep, nil
}

// fingerprint describes the host and the build for the record.
func fingerprint() string {
	b, _ := json.Marshal(map[string]interface{}{
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_revision": gitRevision(),
		"source_sha":   sourceDigest("."),
	})
	return string(b)
}
