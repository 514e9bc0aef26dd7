package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"storemlp/internal/epoch"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

func TestSplitRunInvariants(t *testing.T) {
	drain := uarch.Default().OverlapWindow()
	// fed is what segment i of segs feeds its engine: overlap (or
	// warmup), measured slice, and the drain suffix of every segment but
	// the last.
	fed := func(segs []segment, i int) int64 {
		n := segs[i].end - segs[i].start
		if i < len(segs)-1 {
			n += drain
		}
		return n
	}
	for _, tc := range []struct {
		name        string
		warm, insts int64
		k           int
		overlap     int64
		balanced    bool // false: the plan must be evenSplit's
	}{
		{"short-min-segment", 10_000, 20_000, 4, 16_384, false},
		{"no-warmup", 0, 500_000, 8, 16_384, true},
		{"warmup-outweighs-share", 1_000_000, 500_000, 3, 4_096, false},
		{"tiny", 5, 7, 2, 3, false},
		{"one-segment", 0, 1, 1, 16_384, false},
		{"trace-test", 8_000, 40_000, 4, 262_144, false},
		{"replay-k2", 100_000, 1_100_000, 2, 262_144, true},
		{"replay-k4", 100_000, 1_100_000, 4, 262_144, true},
		{"500k-k4", 100_000, 500_000, 4, 262_144, true},
		{"long-warmup", 1_000_000, 2_000_000, 2, 262_144, true},
	} {
		segs := splitRun(tc.warm, tc.insts, tc.k, tc.overlap, drain)
		if len(segs) != tc.k {
			t.Fatalf("%s: %d segments, want %d", tc.name, len(segs), tc.k)
		}
		var measured int64
		for i, sg := range segs {
			if sg.start < 0 || sg.start > sg.meas || sg.meas >= sg.end {
				t.Fatalf("%s: segment %d malformed: %+v", tc.name, i, sg)
			}
			if i == 0 {
				if sg.start != 0 || sg.meas != tc.warm {
					t.Fatalf("%s: segment 0 must absorb the warmup: %+v", tc.name, sg)
				}
			} else {
				if sg.meas != segs[i-1].end {
					t.Fatalf("%s: segment %d does not abut its predecessor: %+v after %+v", tc.name, i, sg, segs[i-1])
				}
				if ov := sg.meas - sg.start; ov != tc.overlap && sg.start != 0 {
					t.Fatalf("%s: segment %d overlap %d, want %d (or clamped to stream start)", tc.name, i, ov, tc.overlap)
				}
			}
			measured += sg.end - sg.meas
		}
		if measured != tc.insts {
			t.Fatalf("%s: segments measure %d insts, want %d", tc.name, measured, tc.insts)
		}
		if last := segs[len(segs)-1]; last.end != tc.warm+tc.insts {
			t.Fatalf("%s: last segment ends at %d, want %d", tc.name, last.end, tc.warm+tc.insts)
		}

		even := evenSplit(tc.warm, tc.insts, tc.k, tc.overlap)
		if !tc.balanced {
			if !reflect.DeepEqual(segs, even) {
				t.Errorf("%s: plan %+v, want the even split %+v", tc.name, segs, even)
			}
			continue
		}
		// Balance: no overlap reaches back to the stream start, every
		// segment measures a worthwhile slice, and the engines are fed
		// the same number of instructions up to rounding.
		lo, hi := fed(segs, 0), fed(segs, 0)
		for i, sg := range segs {
			if i > 0 && sg.start != sg.meas-tc.overlap {
				t.Errorf("%s: segment %d overlap reaches back to the stream start: %+v", tc.name, i, sg)
			}
			if sg.end-sg.meas < minSegment {
				t.Errorf("%s: segment %d measures %d < %d insts", tc.name, i, sg.end-sg.meas, minSegment)
			}
			lo, hi = min(lo, fed(segs, i)), max(hi, fed(segs, i))
		}
		if hi-lo > 1 {
			t.Errorf("%s: fed counts span %d..%d, want equal up to rounding: %+v", tc.name, lo, hi, segs)
		}
	}

	// A short run, where every overlap reaches back to the stream
	// start, keeps the old even split exactly.
	wantShort := []segment{{0, 10_000, 15_000}, {0, 15_000, 20_000}, {0, 20_000, 25_000}, {0, 25_000, 30_000}}
	if got := splitRun(10_000, 20_000, 4, 262_144, drain); !reflect.DeepEqual(got, wantShort) {
		t.Errorf("short run: plan %+v, want %+v", got, wantShort)
	}
	// The replay shape moves the boundary from the even 650,000 to the
	// balanced point: both engines are fed 731,299 instructions.
	wantReplay := []segment{{0, 100_000, 730_845}, {468_701, 730_845, 1_200_000}}
	if got := splitRun(100_000, 1_100_000, 2, 262_144, drain); !reflect.DeepEqual(got, wantReplay) {
		t.Errorf("replay shape: plan %+v, want %+v", got, wantReplay)
	}
}

func TestSegmentsClamp(t *testing.T) {
	for _, tc := range []struct {
		insts int64
		k     int
		want  int
	}{
		{500_000, 0, 1},
		{500_000, 1, 1},
		{500_000, 4, 4},
		{20_000, 4, 4},
		{8_192, 4, 2},
		{4_096, 8, 1},
		{100, 8, 1},
	} {
		s := Spec{Insts: tc.insts, Parallel: tc.k}
		if got := Segments(s); got != tc.want {
			t.Errorf("Segments(insts=%d, parallel=%d) = %d, want %d", tc.insts, tc.k, got, tc.want)
		}
	}
}

// TestParallelSingleSegmentBitExact: one segment is the whole serial
// run — same stream, same warmup, same engine path — so the parallel
// plumbing at K=1 must be bit-identical to RunContext.
func TestParallelSingleSegmentBitExact(t *testing.T) {
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 20_000, Warm: 10_000}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPool().runParallel(context.Background(), spec, WarmupOverlap(spec.Uarch), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", *want) {
		t.Errorf("K=1 parallel diverges from serial:\n got %+v\nwant %+v", *got, *want)
	}
}

// exactCounters are the overlap-invariant counters: they depend only on
// the measured instruction range, not on machine state carried across a
// segment boundary, so parallel simulation must reproduce them exactly.
func exactCounters(t *testing.T, name string, got, want *epoch.Stats) {
	t.Helper()
	if got.Insts != want.Insts {
		t.Errorf("%s: Insts = %d, want %d", name, got.Insts, want.Insts)
	}
	if got.Hierarchy.Fetches != want.Hierarchy.Fetches {
		t.Errorf("%s: Fetches = %d, want %d", name, got.Hierarchy.Fetches, want.Hierarchy.Fetches)
	}
	if got.Hierarchy.Loads != want.Hierarchy.Loads {
		t.Errorf("%s: Loads = %d, want %d", name, got.Hierarchy.Loads, want.Hierarchy.Loads)
	}
	if got.Hierarchy.Stores != want.Hierarchy.Stores {
		t.Errorf("%s: Stores = %d, want %d", name, got.Hierarchy.Stores, want.Hierarchy.Stores)
	}
	if got.Snoops != want.Snoops {
		t.Errorf("%s: Snoops = %d, want %d", name, got.Snoops, want.Snoops)
	}
}

// relDrift returns |got-want| / want (0 when both are 0).
func relDrift(got, want int64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// driftTolerance is the documented accuracy contract for parallel runs
// at WarmupOverlap: EPI and total charged misses stay within 0.5% of
// the serial run (DESIGN.md §15).
const driftTolerance = 0.005

// TestParallelGoldenEquivalence runs the full 104-config golden grid
// at K=4 and checks the contract against the serial engine: exact for
// overlap-invariant counters, <=0.5% EPI and total-miss drift for the
// state-dependent rest.
func TestParallelGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is a few seconds of simulation")
	}
	pool := NewPool()
	var worstEPI, worstMiss float64
	var worstName string
	for _, gs := range goldenSpecs() {
		serial, err := Run(gs.spec)
		if err != nil {
			t.Fatalf("%s: serial: %v", gs.name, err)
		}
		spec := gs.spec
		spec.Parallel = 4
		par, err := pool.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: parallel: %v", gs.name, err)
		}
		exactCounters(t, gs.name, par, serial)
		epiDrift := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9)
		missDrift := relDrift(par.Misses(), serial.Misses())
		if epiDrift > worstEPI {
			worstEPI, worstName = epiDrift, gs.name
		}
		if missDrift > worstMiss {
			worstMiss = missDrift
		}
		if epiDrift > driftTolerance {
			t.Errorf("%s: EPI drift %.4f%% exceeds %.2f%% (serial %.4f, parallel %.4f)",
				gs.name, 100*epiDrift, 100*driftTolerance, serial.EPI(), par.EPI())
		}
		if missDrift > driftTolerance {
			t.Errorf("%s: miss drift %.4f%% exceeds %.2f%% (serial %d, parallel %d)",
				gs.name, 100*missDrift, 100*driftTolerance, serial.Misses(), par.Misses())
		}
	}
	t.Logf("worst EPI drift %.4f%% (%s), worst miss drift %.4f%% at overlap %d",
		100*worstEPI, worstName, 100*worstMiss, WarmupOverlap(uarch.Default()))
}

// TestOverlapSweep documents how accuracy scales with the overlap
// length at production scale — the sweep that chose overlapPerL2Line.
// The golden grid is useless for this choice: its runs are short
// enough that any overlap past ~32k clamps every segment back to the
// stream start, making state reconstruction trivially exact. Accuracy
// must instead be measured on runs long enough that segments start
// mid-stream with only the overlap to rebuild L2 residency. Run with
// -v to see the curve; the contract is asserted at WarmupOverlap and
// beyond, across every workload at 500k and 2M instructions.
func TestOverlapSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is several seconds of simulation")
	}
	cases := []struct {
		name  string
		w     workload.Params
		insts int64
	}{
		{"tpcw-500k", workload.TPCW(1), 500_000},
		{"database-500k", workload.Database(1), 500_000},
		{"specjbb-500k", workload.SPECjbb(1), 500_000},
		{"specweb-500k", workload.SPECweb(1), 500_000},
		{"tpcw-2M", workload.TPCW(1), 2_000_000},
		{"database-2M", workload.Database(1), 2_000_000},
	}
	pool := NewPool()
	def := WarmupOverlap(uarch.Default())
	for _, overlap := range []int64{32_768, 65_536, 131_072, def, 2 * def} {
		var worst float64
		var worstName string
		for _, tc := range cases {
			spec := Spec{Workload: tc.w, Uarch: uarch.Default(), Insts: tc.insts, Warm: tc.insts / 5}
			serial, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			spec.Parallel = 4
			par, err := pool.runParallel(context.Background(), spec, overlap, 0)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9)
			if d > worst {
				worst, worstName = d, tc.name
			}
		}
		t.Logf("overlap %6d: worst EPI drift %.4f%% (%s)", overlap, 100*worst, worstName)
		if overlap >= def && worst > driftTolerance {
			t.Errorf("overlap %d: worst EPI drift %.4f%% exceeds the %.2f%% contract",
				overlap, 100*worst, 100*driftTolerance)
		}
	}
}

// serialTrace encodes warm+insts instructions of w as a columnar trace
// and runs it through a fresh serial engine: the reference for the
// parallel trace path.
func serialTrace(t *testing.T, w workload.Params, cfg uarch.Config, warm, insts int64) ([]byte, *epoch.Stats) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteAllFormat(&buf, BuildSource(w, cfg, insts+warm), trace.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := colv1.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmInsts = warm
	eng, err := epoch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := eng.RunContext(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	return data, serial
}

// TestParallelTrace drives the same columnar trace through the serial
// and parallel trace paths: K=1 must be bit-exact; K=4 keeps the
// overlap-invariant counters exact and the rest within tolerance.
func TestParallelTrace(t *testing.T) {
	const (
		insts = 40_000
		warm  = 8_000
	)
	cfg := uarch.Default()
	data, serial := serialTrace(t, workload.TPCW(1), cfg, warm, insts)

	pool := NewPool()
	one, err := pool.RunTraceParallel(context.Background(), data, cfg, warm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *one) != fmt.Sprintf("%+v", *serial) {
		t.Errorf("K=1 trace parallel diverges from serial:\n got %+v\nwant %+v", *one, *serial)
	}

	par, err := pool.RunTraceParallel(context.Background(), data, cfg, warm, 4)
	if err != nil {
		t.Fatal(err)
	}
	exactCounters(t, "trace K=4", par, serial)
	if d := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9); d > driftTolerance {
		t.Errorf("trace K=4: EPI drift %.4f%% exceeds %.2f%%", 100*d, 100*driftTolerance)
	}
}

// TestParallelTraceProductionScale holds the trace path to the
// accuracy contract where its segments start mid-stream. At
// TestParallelTrace's scale every overlap reaches back to the stream
// start, so state reconstruction is trivially exact (DESIGN.md §15.3);
// here — the replay benchmark's shape, 100k warmup and 1.1M measured
// instructions — every later segment starts at a balanced boundary deep
// in the trace and only its overlap rebuilds the machine state.
func TestParallelTraceProductionScale(t *testing.T) {
	if testing.Short() {
		t.Skip("production-scale traces are seconds of simulation")
	}
	const (
		warm  = 100_000
		insts = 1_100_000
	)
	cfg := uarch.Default()
	ov := WarmupOverlap(cfg)
	pool := NewPool()
	for _, w := range workload.All(1) {
		data, serial := serialTrace(t, w, cfg, warm, insts)
		for _, k := range []int{2, 4} {
			name := fmt.Sprintf("%s K=%d", w.Name, k)
			if segs := splitRun(warm, insts, k, ov, cfg.OverlapWindow()); segs[1].start == 0 {
				t.Fatalf("%s: segment 1 starts at the stream start; the case tests nothing", name)
			}
			par, err := pool.RunTraceParallel(context.Background(), data, cfg, warm, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			exactCounters(t, name, par, serial)
			epiDrift := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9)
			missDrift := relDrift(par.Misses(), serial.Misses())
			t.Logf("%s: EPI drift %.4f%%, miss drift %.4f%%", name, 100*epiDrift, 100*missDrift)
			if epiDrift > driftTolerance {
				t.Errorf("%s: EPI drift %.4f%% exceeds %.2f%% (serial %.4f, parallel %.4f)",
					name, 100*epiDrift, 100*driftTolerance, serial.EPI(), par.EPI())
			}
			if missDrift > driftTolerance {
				t.Errorf("%s: miss drift %.4f%% exceeds %.2f%% (serial %d, parallel %d)",
					name, 100*missDrift, 100*driftTolerance, serial.Misses(), par.Misses())
			}
		}
	}
}

// TestParallelCancel: a cancelled context must surface as the
// context's error from every entry point, with all segment goroutines
// joined before return (the race detector would catch stragglers).
func TestParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(),
		Insts: 100_000, Warm: 0, Parallel: 4}
	if _, err := NewPool().RunContext(ctx, spec); err != context.Canceled {
		t.Errorf("cancelled parallel run: err = %v, want context.Canceled", err)
	}
}

// TestParallelValidate: the knob is validated like every other field.
func TestParallelValidate(t *testing.T) {
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 1000, Parallel: -1}
	if err := spec.Validate(); err == nil {
		t.Error("negative Parallel passed Validate")
	}
}
