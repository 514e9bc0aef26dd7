package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"storemlp"
	"storemlp/internal/cache"
	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/sim"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// How a traced run splits its window: the workload's own loop
// (alternating untraced and traced chunks), the layer ledger, and — for
// workloads other than serve — a serve session for the server layers.
const (
	loopShare   = 0.5
	ledgerShare = 0.35
	traceChunk  = 500 * time.Millisecond
	// ledgerTolerancePct bounds each ledger identity's median residual.
	ledgerTolerancePct = 10
	// The ledger's cell is smaller than a sweep cell: its collected
	// slice (24 B per instruction) must stay cache-resident, or the core
	// span times streaming the slice from memory, which the generator-fed
	// cell never does, and the identity no longer balances.
	ledgerWarm  = 30_000
	ledgerInsts = 60_000
)

// ledgerInput is one workload's inputs to the layer ledger.
type ledgerInput struct {
	w     workload.Params
	opts  []epoch.Option // coherence traffic, as sim.RunContext builds it
	slice *trace.Slice   // ledgerWarm+ledgerInsts instructions
	enc   []byte         // slice encoded as colv1
	addrs []uint64       // the slice's data addresses
	long  []byte         // replayInsts-instruction colv1 trace
}

func newLedgerInput(seed int64, k int) (*ledgerInput, error) {
	w := workload.All(0)[k]
	w.Seed = genSeed(seed, 200+uint64(k))
	cfg := uarch.Default()
	in := &ledgerInput{
		w:     w,
		opts:  []epoch.Option{epoch.WithTrafficSkip(w.Traffic(), w.Seed+1, 0)},
		slice: trace.Collect(sim.BuildSource(w, cfg, ledgerWarm+ledgerInsts)),
	}
	for _, x := range in.slice.Insts {
		if x.Op.IsMem() {
			in.addrs = append(in.addrs, x.Addr)
		}
	}
	var buf bytes.Buffer
	if err := encode(&buf, in.slice.Insts); err != nil {
		return nil, err
	}
	in.enc = buf.Bytes()
	var long bytes.Buffer
	if _, err := storemlp.WriteTraceFormat(&long, w, cfg, replayInsts, storemlp.TraceColumnar); err != nil {
		return nil, err
	}
	in.long = long.Bytes()
	return in, nil
}

func encode(buf *bytes.Buffer, insts []isa.Inst) error {
	cw, err := colv1.NewWriter(buf)
	if err != nil {
		return err
	}
	if err := cw.WriteBatch(insts); err != nil {
		return err
	}
	return cw.Close()
}

// ledger is the per-layer measurement: rounds that each time one call
// into every layer on one workload's inputs, rotating through the four
// workloads, so every layer is sampled across the same host phases.
type ledger struct {
	log       *spanLog
	allocs    []float64
	residuals [2][]float64 // sweep cell, serial replay
	bytesInst float64
}

// ledgerMinRounds is the fewest rounds a ledger runs: eight per
// workload. Single rounds swing by tens of percent on a noisy host, so
// even a short run needs this many for the identities' medians to hold.
const ledgerMinRounds = 32

// runLedger measures the layers for at least ledgerMinRounds rounds and
// until budget has passed.
func runLedger(ctx context.Context, seed int64, budget time.Duration) (*ledger, error) {
	var ins []*ledgerInput
	for k := range workload.All(0) {
		in, err := newLedgerInput(seed, k)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	l := &ledger{log: newSpanLog()}
	eng, err := epoch.New(uarch.Default())
	if err != nil {
		return nil, err
	}
	pool := sim.NewPool()
	l2 := cache.New(uarch.Default().Hierarchy.L2)
	start := time.Now()
	for r := 0; r < ledgerMinRounds || time.Since(start) < budget; r++ {
		// Collect between rounds so a GC cycle rarely lands inside a
		// timed span.
		runtime.GC()
		if err := l.round(ctx, ins[r%len(ins)], eng, pool, l2); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// timed runs f inside a span and returns its duration in nanoseconds.
func (l *ledger) timed(name string, work int64, f func() error) (float64, error) {
	id := l.log.begin(name, -1)
	err := f()
	l.log.end(id, work)
	s := l.log.spans[id]
	return float64(s.end - s.start), err
}

func (l *ledger) round(ctx context.Context, in *ledgerInput, eng *epoch.Engine, pool *sim.Pool, l2 *cache.Cache) error {
	n := int64(ledgerWarm + ledgerInsts)
	cfg := uarch.Default()
	cfgW := cfg
	cfgW.WarmInsts = ledgerWarm
	batch := make([]isa.Inst, 4096)

	gen, err := l.timed("workload.Generator.ReadBatch", n, func() error {
		g := workload.NewGenerator(in.w)
		for left := n; left > 0; {
			b := batch
			if left < int64(len(b)) {
				b = b[:left]
			}
			left -= int64(g.ReadBatch(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	build, err := l.timed("epoch.New+sim.BuildSource", 1, func() error {
		_, err := epoch.New(cfgW, in.opts...)
		sim.BuildSource(in.w, cfgW, n)
		return err
	})
	if err != nil {
		return err
	}
	core, err := l.timed("epoch.Engine.Run", n, func() error {
		if err := eng.Reconfigure(cfgW, in.opts...); err != nil {
			return err
		}
		in.slice.Reset()
		_, err := eng.Run(in.slice)
		return err
	})
	if err != nil {
		return err
	}
	var st *epoch.Stats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cell, err := l.timed("sim.RunContext", n, func() error {
		var err error
		st, err = sim.RunContext(ctx, sim.Spec{Workload: in.w, Uarch: cfg, Insts: ledgerInsts, Warm: ledgerWarm})
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	l.allocs = append(l.allocs, float64(ms.Mallocs-mallocs))
	l.residuals[0] = append(l.residuals[0], 100*(cell-gen-build-core)/cell)

	l2.Reset()
	for _, a := range in.addrs {
		if l2.Lookup(a) == cache.Invalid {
			l2.Insert(a, cache.Exclusive)
		}
	}
	var hits int
	if _, err := l.timed("cache.Cache.Lookup", int64(len(in.addrs)), func() error {
		for _, a := range in.addrs {
			if l2.Lookup(a) != cache.Invalid {
				hits++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if hits == 0 {
		return fmt.Errorf("cache lookups over a filled cache found no line")
	}

	var buf bytes.Buffer
	if _, err := l.timed("colv1.Writer", n, func() error { return encode(&buf, in.slice.Insts) }); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), in.enc) {
		return fmt.Errorf("colv1 encoding of the same instructions differs between calls")
	}
	l.bytesInst = float64(len(in.enc)) / float64(n)
	decode, err := l.timed("colv1.Reader.ReadBatch", n, func() error {
		r, err := colv1.NewBytesReader(in.enc)
		if err != nil {
			return err
		}
		got := int64(0)
		for {
			k := r.ReadBatch(batch)
			if k == 0 {
				break
			}
			got += int64(k)
		}
		if got != n {
			return fmt.Errorf("decoded %d insts, want %d", got, n)
		}
		return r.Err()
	})
	if err != nil {
		return err
	}
	coreBare, err := l.timed("epoch.Engine.Run/no-traffic", n, func() error {
		if err := eng.Reconfigure(cfgW); err != nil {
			return err
		}
		in.slice.Reset()
		_, err := eng.Run(in.slice)
		return err
	})
	if err != nil {
		return err
	}
	serial, err := l.timed("sim.Pool.RunTraceSource", n, func() error {
		r, err := colv1.NewBytesReader(in.enc)
		if err != nil {
			return err
		}
		_, err = pool.RunTraceSource(ctx, r, cfg, ledgerWarm)
		return err
	})
	if err != nil {
		return err
	}
	l.residuals[1] = append(l.residuals[1], 100*(serial-decode-coreBare)/serial)

	const merges = 1000
	if _, err := l.timed("epoch.Stats.Merge", merges, func() error {
		var acc epoch.Stats
		for i := 0; i < merges; i++ {
			acc.Merge(st)
		}
		if acc.Insts != merges*st.Insts {
			return fmt.Errorf("merged %d insts, want %d", acc.Insts, merges*st.Insts)
		}
		return nil
	}); err != nil {
		return err
	}
	const digests = 200
	rs := storemlp.RunSpec{Workload: in.w, Config: cfg, Insts: ledgerInsts, Warm: ledgerWarm}
	var d0 string
	if _, err := l.timed("storemlp.ConfigDigest", digests, func() error {
		for i := 0; i < digests; i++ {
			d := storemlp.ConfigDigest(rs)
			if i > 0 && d != d0 {
				return fmt.Errorf("digest of one spec changed between calls")
			}
			d0 = d
		}
		return nil
	}); err != nil {
		return err
	}

	for _, k := range []int{1, runtime.GOMAXPROCS(0)} {
		if _, err := l.timed(fmt.Sprintf("storemlp.RunTraceBytesParallel/%d", k), replayInsts, func() error {
			_, err := storemlp.RunTraceBytesParallel(ctx, in.long, cfg, replayWarm, k)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the traced run: the workload's loop with spans in every
// other chunk, the layer ledger, and the server layers, reported as
// the per-layer metrics.
func runTraced(ctx context.Context, def workloadDef, seed int64, dir, workdir string, window time.Duration) (*report, error) {
	s, err := def.setup(ctx, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	defer s.close()
	rep := newReport()

	rt0 := readRuntime()
	lr := runLoop(ctx, s, time.Duration(loopShare*float64(window)), alternate(traceChunk))
	rt1 := readRuntime()
	late, err := s.finish(ctx)
	if err != nil {
		return nil, err
	}
	attempted, failed := lr.attempted(), lr.failed+late
	ops := float64(len(lr.lat))
	var nT, nU float64
	for _, t := range lr.traced {
		if t {
			nT++
		} else {
			nU++
		}
	}
	rateT := nT / modeSeconds(lr.elapsed, traceChunk, true)
	rateU := nU / modeSeconds(lr.elapsed, traceChunk, false)
	rep.set("bench.trace_overhead_pct", 100*(rateU/rateT-1), "%",
		fmt.Sprintf("untraced %.2f ops/s vs traced %.2f ops/s in alternating %v chunks", rateU, rateT, traceChunk))
	rep.set("runtime.gc_cycles", 1000*float64(rt1.gcCycles-rt0.gcCycles)/ops, "1/kop",
		fmt.Sprintf("%d GC cycles over %.0f %s ops", rt1.gcCycles-rt0.gcCycles, ops, def.name))
	rep.set("runtime.gc_pause_ms", 1e6*(rt1.pauseSec-rt0.pauseSec)/ops, "ms/kop",
		"GC stop-the-world pause per 1000 ops (pause histogram midpoints)")
	rep.set("runtime.alloc_mb_per_op", float64(rt1.allocBytes-rt0.allocBytes)/ops/1e6, "MB",
		"heap bytes allocated per op")

	l, err := runLedger(ctx, seed, time.Duration(ledgerShare*float64(window)))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	logs := []*spanLog{l.log}
	perInst := func(name, metricName, note string) {
		v, k := perWork(logs, name)
		rep.set(metricName, v, "ns", fmt.Sprintf("%s, median of %d spans; %s", name, k, note))
	}
	perInst("workload.Generator.ReadBatch", "workload.gen_ns_per_inst", "moves sweep ops_per_s, not replay")
	v, k := perWork(logs, "epoch.New+sim.BuildSource")
	rep.set("epoch.new_engine_us", v/1e3, "us", fmt.Sprintf("median of %d spans; moves sweep op_p50_ms", k))
	perInst("epoch.Engine.Run", "epoch.core_ns_per_inst", "moves ops_per_s on sweep and replay, serve miss latency")
	rep.set("epoch.allocs_per_run", median(l.allocs), "count",
		fmt.Sprintf("heap objects per sim.RunContext cell, median of %d; moves peak_rss_mb", len(l.allocs)))
	perInst("cache.Cache.Lookup", "cache.lookup_ns", "per lookup on the trace's data addresses; moves epoch.core_ns_per_inst")
	perInst("colv1.Reader.ReadBatch", "colv1.decode_ns_per_inst", "moves replay ops_per_s, not sweep")
	perInst("colv1.Writer", "colv1.encode_ns_per_inst", "moves replay setup_s")
	rep.set("colv1.bytes_per_inst", l.bytesInst, "B", "encoded size per instruction; moves replay peak_rss_mb")
	one, _ := perWork(logs, "storemlp.RunTraceBytesParallel/1")
	par, k := perWork(logs, fmt.Sprintf("storemlp.RunTraceBytesParallel/%d", runtime.GOMAXPROCS(0)))
	rep.set("sim.parallel_speedup", one/par, "x",
		fmt.Sprintf("1 segment vs %d segments on a %d-inst trace, median of %d; moves replay op_p50_ms",
			runtime.GOMAXPROCS(0), replayInsts, k))
	v, k = perWork(logs, "epoch.Stats.Merge")
	rep.set("sim.merge_us", v/1e3, "us", fmt.Sprintf("per Stats.Merge, median of %d spans; moves replay op_p50_ms", k))
	v, k = perWork(logs, "storemlp.ConfigDigest")
	rep.set("digest.spec_ns", v, "ns", fmt.Sprintf("per storemlp.ConfigDigest, median of %d spans; moves serve op_p50_ms", k))
	sweepRes, replayRes := median(l.residuals[0]), median(l.residuals[1])
	rep.set("sim.ledger_residual_pct", math.Max(math.Abs(sweepRes), math.Abs(replayRes)), "%",
		fmt.Sprintf("larger of: sweep cell - (generator + construction + core) = %.2f%%, serial replay - (decode + core) = %.2f%%; median of %d rounds each, tolerance %d%%",
			sweepRes, replayRes, len(l.residuals[0]), ledgerTolerancePct))
	attempted += 2
	for _, r := range []float64{sweepRes, replayRes} {
		if math.Abs(r) > ledgerTolerancePct {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: ledger identity residual %.2f%% exceeds %d%%\n", r, ledgerTolerancePct)
		}
	}

	ss, _ := s.(*serveSession)
	slr := lr
	if ss == nil {
		ps, err := newServe(ctx, seed, "")
		if err != nil {
			return nil, err
		}
		defer ps.close()
		probe := time.Duration((1 - loopShare - ledgerShare) * float64(window))
		slr = runLoop(ctx, ps, probe, func(time.Duration) bool { return true })
		late, err := ps.finish(ctx)
		if err != nil {
			return nil, err
		}
		attempted += slr.attempted()
		failed += slr.failed + late
		ss = ps.(*serveSession)
		logs = append(logs, slr.spans...)
	}
	if err := ss.layers(ctx, rep, slr); err != nil {
		return nil, err
	}

	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.res.Correct = failed == 0
	logs = append(logs, lr.spans...)
	path := filepath.Join(workdir, "trace-"+def.name+".json")
	if err := writeChromeTrace(path, logs); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return rep, nil
}

// layers reports the server-layer metrics from the session's window lr
// and from /metrics.
func (s *serveSession) layers(ctx context.Context, rep *report, lr *loopResult) error {
	by := map[string][]float64{}
	for i, k := range lr.kinds {
		by[k] = append(by[k], float64(lr.lat[i])/1e6)
	}
	var direct []float64
	pairs := 0
	for c := range s.missed {
		for _, p := range s.missed[c] {
			direct = append(direct, float64(s.direct[p])/1e6)
		}
		pairs += s.pairs[c]
	}
	total := len(lr.lat)
	after, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(name string, labels ...string) float64 {
		return sample(after, name, labels...) - sample(s.before, name, labels...)
	}
	rep.set("server.hit_p50_ms", median(by["hit"]), "ms", fmt.Sprintf("p50 of %d cache hits; moves serve op_p50_ms", len(by["hit"])))
	rep.set("server.coalesced_p50_ms", median(by["coalesced"]), "ms",
		fmt.Sprintf("p50 of %d coalesced requests; moves serve op_p50_ms", len(by["coalesced"])))
	rep.set("server.miss_p50_ms", median(by["miss"]), "ms", fmt.Sprintf("p50 of %d misses; moves serve op_tail_ms", len(by["miss"])))
	rep.set("server.miss_overhead_ms", median(by["miss"])-median(direct), "ms",
		fmt.Sprintf("miss p50 minus p50 of direct sim.Pool runs of the same %d specs; moves serve op_tail_ms", len(direct)))
	waits := delta("mlpsimd_stage_seconds_count", "stage", "pool_wait")
	rep.set("server.pool_wait_ms", 1e3*delta("mlpsimd_stage_seconds_sum", "stage", "pool_wait")/waits, "ms",
		fmt.Sprintf("mean of %.0f pool waits from mlpsimd_stage_seconds; moves serve op_tail_ms", waits))
	hits := len(by["hit"])
	rep.set("server.hit_ratio", float64(hits)/float64(total), "ratio",
		fmt.Sprintf("%d hits of %d requests; moves serve ops_per_s", hits, total))
	rep.set("server.requests", float64(total), "count", "base of server.hit_ratio")
	rep.set("server.coalesce_ratio", float64(len(by["coalesced"]))/float64(pairs/2), "ratio",
		fmt.Sprintf("%d followers coalesced of %d simultaneous pairs; moves serve ops_per_s", len(by["coalesced"]), pairs/2))
	rep.set("server.coalesce_pairs", float64(pairs/2), "count", "base of server.coalesce_ratio")
	rep.set("server.evictions", delta("mlpsimd_cache_evictions_total"), "count",
		fmt.Sprintf("result-cache LRU evictions during the window (%d entries)", serveCacheEntries))
	return nil
}

// sample sums the samples named name whose labels include the given
// key/value pairs.
func sample(fams []obs.Family, name string, labels ...string) float64 {
	sum := 0.0
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Labels[labels[i]] != labels[i+1] {
					match = false
				}
			}
			if match {
				sum += s.Value
			}
		}
	}
	return sum
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, one
// track per log.
func writeChromeTrace(path string, logs []*spanLog) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for tid, l := range logs {
		for i, s := range l.spans {
			evs = append(evs, event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: tid,
				Args: map[string]int{"span": i, "parent": s.parent}})
		}
	}
	b, err := json.Marshal(map[string]interface{}{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
