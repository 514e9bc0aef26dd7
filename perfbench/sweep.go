package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"storemlp/internal/epoch"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Sweep cell sizes. The host's speed drifts with other tenants' load,
// so a run's op latencies are a mixture of fast- and slow-phase values.
// Were every cell the same size, that mixture would have two modes and
// its median would jump from one to the other as the share of slow
// phases crossed one half. The (workload, SB, SQ) groups of a workload
// instead take cellLevels measured lengths spaced evenly in log scale
// over a 3x range, wider than the fast/slow gap, so the median moves
// smoothly with that share, as a mean would. Each length holds one
// group per workload, so every seed runs the same mix of lengths. A
// 45-s run holds several hundred cells, so no timing rests on a handful
// of long operations, and even in the host's fastest phases it stays
// well below the 1,000 ops at which the tail would switch from p90 to a
// p99 with barely ten samples beyond it.
const (
	cellMinInsts = 900_000
	cellLevels   = 12 // = len(gridSB) * len(gridSQ), one per group of a workload
	cellWarm     = 300_000
)

// cellInsts is the measured length of level k of the ladder.
func cellInsts(k int) int64 {
	return int64(math.Round(cellMinInsts * math.Pow(3, float64(k)/float64(cellLevels-1))))
}

// Figure 2's store buffer and store queue sizes.
var (
	gridSB = []int{8, 16, 32}
	gridSQ = []int{16, 32, 64, 256}
)

// cell is one Figure-2 grid point.
type cell struct {
	spec    sim.Spec
	perfect bool
	triple  int // index of the (workload, SB, SQ) group; -1 for perfect-stores
	mode    int // store prefetch mode 0..2
}

// genSeed derives the generator seed of a workload from the benchmark
// seed and a stream number, so the same seed gives the same inputs.
func genSeed(seed int64, stream uint64) int64 {
	return int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15+stream) >> 1)
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildGrid lays out the Figure-2 grid — every workload x store
// prefetch mode x store buffer x store queue, plus perfect stores per
// workload — with generator seeds, cell lengths and cell order drawn
// from seed. The three prefetch modes of a (workload, SB, SQ) group
// share one trace and length, so their EPIs compare; each group draws
// its own generator seed, so a run's cost averages over 52 traces
// instead of resting on four. The order interleaves lengths, so every
// stretch of it, and so a run's last, partial pass over the grid, holds
// the lengths in nearly equal shares.
func buildGrid(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	var cells []cell
	triple := 0
	for k, w := range workload.All(0) {
		spec := func(cfg uarch.Config, stream uint64, insts int64) sim.Spec {
			w.Seed = genSeed(seed, stream)
			return sim.Spec{Workload: w, Uarch: cfg, Insts: insts, Warm: cellWarm}
		}
		levels := rng.Perm(cellLevels)
		g := 0
		for _, sb := range gridSB {
			for _, sq := range gridSQ {
				insts := cellInsts(levels[g])
				for m, sp := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
					cfg := uarch.Default()
					cfg.StorePrefetch, cfg.StoreBuffer, cfg.StoreQueue = sp, sb, sq
					cells = append(cells, cell{spec: spec(cfg, uint64(triple), insts), triple: triple, mode: m})
				}
				triple++
				g++
			}
		}
		cfg := uarch.Default()
		cfg.PerfectStores = true
		cells = append(cells, cell{spec: spec(cfg, 1000+uint64(k), cellInsts(rng.Intn(cellLevels))), perfect: true, triple: -1})
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	// The i-th cell of each length goes before the (i+1)-th of any.
	rank := make([]int, len(cells))
	seen := map[int64]int{}
	for i, c := range cells {
		rank[i] = seen[c.spec.Insts]
		seen[c.spec.Insts]++
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] < rank[order[b]] })
	out := make([]cell, len(cells))
	for i, j := range order {
		out[i] = cells[j]
	}
	return out
}

// sweepSession runs grid cells through sim.RunContext, the call the
// experiment harness's parMap makes, on GOMAXPROCS workers that take
// cells in grid order and start over at the end of the grid.
type sweepSession struct {
	grid []cell
	next atomic.Int64

	mu      sync.Mutex
	ref     []*epoch.Stats // guarded by mu: first result per cell
	epi     [][3]float64   // guarded by mu: per triple, EPI by prefetch mode
	seen    []uint8        // guarded by mu: per triple, bitmask of modes seen
	checked []bool         // guarded by mu: per triple, monotonicity checked
}

func newSweep(ctx context.Context, seed int64, _ string) (session, error) {
	grid := buildGrid(seed)
	triples := 0
	for _, c := range grid {
		if c.triple >= triples {
			triples = c.triple + 1
		}
	}
	s := &sweepSession{
		grid:    grid,
		ref:     make([]*epoch.Stats, len(grid)),
		epi:     make([][3]float64, triples),
		seen:    make([]uint8, triples),
		checked: make([]bool, triples),
	}
	// Warm the allocator and the engine's page set with one untimed
	// cell per worker, as a caller's first run would. The warm-up cells
	// take the shortest length, so set-up time does not depend on which
	// lengths the seed put first.
	for w := 0; w < s.workers(); w++ {
		spec := s.grid[w%len(s.grid)].spec
		spec.Insts = cellInsts(0)
		if _, err := sim.RunContext(ctx, spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *sweepSession) workers() int { return runtime.GOMAXPROCS(0) }

func (s *sweepSession) op(ctx context.Context, _, _ int, sp *spanLog) opResult {
	i := int(s.next.Add(1)-1) % len(s.grid)
	c := &s.grid[i]
	start := time.Now()
	id := sp.begin("sim.RunContext", -1)
	st, err := sim.RunContext(context.WithoutCancel(ctx), c.spec)
	sp.end(id, c.spec.Warm+c.spec.Insts)
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	return opResult{lat: lat, kind: "cell", err: s.check(i, st)}
}

// check holds a cell's result to the sweep's output contract: the same
// spec repeats bit-identical Stats within a run, and within each
// (workload, SB, SQ) group EPI is Sp0 >= Sp1 >= Sp2.
func (s *sweepSession) check(i int, st *epoch.Stats) error {
	c := &s.grid[i]
	if st.Insts != c.spec.Insts {
		return fmt.Errorf("cell %d: measured %d insts, want %d", i, st.Insts, c.spec.Insts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref := s.ref[i]; ref != nil {
		if *ref != *st {
			return fmt.Errorf("cell %d (%s %s): stats differ from the first run of the same spec",
				i, c.spec.Workload.Name, c.spec.Uarch.Name())
		}
		return nil
	}
	// sim.RunContext returns a pointer into its engine. Keep a copy, so
	// the check does not hold every cell's engine alive and inflate the
	// heap and peak_rss_mb.
	ref := *st
	s.ref[i] = &ref
	if c.perfect {
		return nil
	}
	t := c.triple
	s.epi[t][c.mode] = st.EPI()
	s.seen[t] |= 1 << c.mode
	if s.seen[t] != 7 || s.checked[t] {
		return nil
	}
	s.checked[t] = true
	if e := s.epi[t]; e[0] < e[1] || e[1] < e[2] {
		return fmt.Errorf("%s Sb%d Sq%d: EPI by prefetch mode %v is not Sp0 >= Sp1 >= Sp2",
			c.spec.Workload.Name, c.spec.Uarch.StoreBuffer, c.spec.Uarch.StoreQueue, e)
	}
	return nil
}

func (s *sweepSession) finish(context.Context) (int, error) { return 0, nil }
func (s *sweepSession) close()                              {}
