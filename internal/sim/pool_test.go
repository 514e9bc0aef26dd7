package sim

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// freshRun is the reference for pooled runs: a newly built engine over
// a newly built source, sharing with the Pool only the spec-to-options
// translation.
func freshRun(t *testing.T, s Spec) epoch.Stats {
	t.Helper()
	cfg, opts := prepare(s)
	eng, err := epoch.New(cfg, opts...)
	if err != nil {
		t.Fatalf("epoch.New: %v", err)
	}
	st, err := eng.Run(BuildSource(s.Workload, cfg, s.Warm+s.Insts))
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return *st
}

// poolSpecs are differently shaped specs — consistency models, SMAC,
// multi-node traffic, shared core — so that each pooled run inherits
// an engine last configured for something else.
func poolSpecs() []Spec {
	wc := uarch.Default()
	wc.Model = consistency.WC
	smacCfg := uarch.Default()
	smacCfg.SMACEntries = 32 << 10
	multi := uarch.Default()
	multi.Nodes = 2
	return []Spec{
		{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 60_000, Warm: 30_000},
		{Workload: workload.TPCW(2), Uarch: wc, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(3), Uarch: smacCfg, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(4), Uarch: multi, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(5), Uarch: uarch.Default(), Insts: 60_000, Warm: 30_000, SharedCore: true},
		{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 60_000, Warm: 30_000},
	}
}

// TestPoolMatchesRun drives one pool through poolSpecs and requires
// bit-identical statistics versus a fresh engine, in spite of each run
// inheriting the previous run's recycled engine.
func TestPoolMatchesRun(t *testing.T) {
	p := NewPool()
	for i, s := range poolSpecs() {
		want := freshRun(t, s)
		got, err := p.Run(s)
		if err != nil {
			t.Fatalf("spec %d: Pool.Run: %v", i, err)
		}
		if *got != want {
			t.Errorf("spec %d: pooled run diverged:\n got  %+v\n want %+v", i, *got, want)
		}
	}
	if idle := p.Idle(); idle != 1 {
		t.Errorf("sequential pool use parked %d engines, want 1", idle)
	}
}

// TestPoolConcurrentRunContext runs poolSpecs concurrently on one
// pool, which hands engines back and forth between the goroutines;
// every result must still match a fresh engine bit for bit, and must be
// a copy no later run overwrites.
func TestPoolConcurrentRunContext(t *testing.T) {
	specs := poolSpecs()
	want := make([]epoch.Stats, len(specs))
	for i, s := range specs {
		want[i] = freshRun(t, s)
	}
	got := make([]*epoch.Stats, 2*len(specs))
	errs := make([]error, len(got))
	p := NewPool()
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = p.RunContext(context.Background(), specs[i%len(specs)])
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if *st != want[i%len(specs)] {
			t.Errorf("run %d: concurrent pooled run diverged:\n got  %+v\n want %+v", i, *st, want[i%len(specs)])
		}
	}
}

// TestPoolRecyclesSegmentEngines drives one pool through parallel
// trace and synthetic runs of two configurations (store buffer, store
// queue and SMAC differ), with serial runs between them, first in turn
// and then all at once. Every result must match a fresh pool's bit for
// bit, so Reconfigure must clear the measure limit and warm
// continuation a segment leaves on its engine. A warmed-up call builds
// no engine: it allocates less than one engine construction does.
func TestPoolRecyclesSegmentEngines(t *testing.T) {
	const (
		warm, insts = 20_000, 60_000
		k           = 3
	)
	ctx := context.Background()
	cfg := uarch.Default()
	other := cfg
	other.StoreBuffer, other.StoreQueue, other.SMACEntries = 8, 64, 8<<10
	data, _ := serialTrace(t, workload.Database(9), cfg, warm, insts)
	spec := func(c uarch.Config, par int) Spec {
		return Spec{Workload: workload.TPCW(9), Uarch: c, Insts: insts, Warm: warm, Parallel: par}
	}
	calls := []struct {
		name string
		run  func(*Pool) (*epoch.Stats, error)
	}{
		{"trace", func(p *Pool) (*epoch.Stats, error) { return p.RunTraceParallel(ctx, data, cfg, warm, k) }},
		{"trace, other config", func(p *Pool) (*epoch.Stats, error) { return p.RunTraceParallel(ctx, data, other, warm, k) }},
		{"serial trace, other config", func(p *Pool) (*epoch.Stats, error) {
			r, err := colv1.NewBytesReader(data)
			if err != nil {
				return nil, err
			}
			return p.RunTraceSource(ctx, r, other, warm)
		}},
		{"synthetic", func(p *Pool) (*epoch.Stats, error) { return p.RunContext(ctx, spec(cfg, k)) }},
		{"synthetic, other config", func(p *Pool) (*epoch.Stats, error) { return p.RunContext(ctx, spec(other, k)) }},
		{"serial synthetic", func(p *Pool) (*epoch.Stats, error) { return p.RunContext(ctx, spec(cfg, 1)) }},
		{"trace again", func(p *Pool) (*epoch.Stats, error) { return p.RunTraceParallel(ctx, data, cfg, warm, k) }},
	}
	want := make([]epoch.Stats, len(calls))
	for i, c := range calls {
		st, err := c.run(NewPool())
		if err != nil {
			t.Fatalf("%s on a fresh pool: %v", c.name, err)
		}
		want[i] = *st
	}
	p := NewPool()
	for i, c := range calls {
		got, err := c.run(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *got != want[i] {
			t.Errorf("%s: recycled engines diverged from a fresh pool:\n got  %+v\n want %+v", c.name, *got, want[i])
		}
	}
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.run(p)
			if err != nil {
				t.Errorf("concurrent %s: %v", c.name, err)
				return
			}
			if *got != want[i] {
				t.Errorf("concurrent %s: recycled engines diverged from a fresh pool", c.name)
			}
		}()
	}
	wg.Wait()

	// The minimum of a few calls filters allocations other goroutines
	// make meanwhile.
	allocated := func(f func()) uint64 {
		var best uint64 = math.MaxUint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	engine := allocated(func() {
		if _, err := epoch.New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	warmedUp := func() {
		if _, err := p.RunTraceParallel(ctx, data, cfg, warm, k); err != nil {
			t.Fatal(err)
		}
	}
	warmedUp()
	call := allocated(warmedUp)
	t.Logf("one engine allocates %d B, a warmed-up %d-segment call %d B", engine, k, call)
	if call >= engine {
		t.Errorf("warmed-up call allocated %d B, at least one engine's %d B: it built an engine", call, engine)
	}
}

// TestPoolRecyclesAfterCancel: an engine abandoned mid-run must return
// to the pool and produce correct results on its next lease.
func TestPoolRecyclesAfterCancel(t *testing.T) {
	p := NewPool()
	s := Spec{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 60_000, Warm: 30_000}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx, s); err == nil {
		t.Fatal("expected cancellation error")
	}
	if idle := p.Idle(); idle != 1 {
		t.Fatalf("cancelled run parked %d engines, want 1", idle)
	}

	want := freshRun(t, s)
	got, err := p.Run(s)
	if err != nil {
		t.Fatalf("Pool.Run: %v", err)
	}
	if *got != want {
		t.Errorf("post-cancel pooled run diverged:\n got  %+v\n want %+v", *got, want)
	}
}
