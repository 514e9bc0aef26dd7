package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"storemlp"
	"storemlp/internal/epoch"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Replay trace shape: with two segments each measures 550k
// instructions, so the 262144-instruction warm-up overlap stays a
// minority of every segment.
const (
	replayInsts = 1_200_000
	replayWarm  = 100_000
	// replayDrift is the documented bound on a parallel run's EPI drift
	// from the serial run at production scale.
	replayDrift = 0.005
)

// replayTrace is one on-disk colv1 trace and its serial reference.
type replayTrace struct {
	name   string
	path   string
	serial *epoch.Stats
}

// replaySession replays colv1 traces of the paper's four workloads
// with storemlp.RunTraceFileParallel, one call at a time, each split
// into GOMAXPROCS segments.
type replaySession struct {
	traces []replayTrace // op i replays traces[i%len(traces)]
	segs   int
	dir    string

	mu    sync.Mutex
	first []*epoch.Stats // guarded by mu: first parallel result per trace
}

// replayWorkloads are the trace set of a seed, in visiting order.
func replayWorkloads(seed int64) []workload.Params {
	ws := workload.All(0)
	for k := range ws {
		ws[k].Seed = genSeed(seed, 100+uint64(k))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// writeTrace encodes n instructions of w as a colv1 trace at path.
func writeTrace(path string, w workload.Params, n int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := storemlp.WriteTraceFormat(bw, w, uarch.Default(), n, storemlp.TraceColumnar); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	// Sync so the trace's writeback is paid in set-up, not in the
	// measured window.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newReplay writes the trace set (the colv1 write path) and runs each
// trace serially once as the reference the parallel runs are checked
// against.
func newReplay(ctx context.Context, seed int64, dir string) (session, error) {
	ws := replayWorkloads(seed)
	s := &replaySession{segs: runtime.GOMAXPROCS(0), dir: dir, first: make([]*epoch.Stats, len(ws))}
	for _, w := range ws {
		t := replayTrace{name: w.Name, path: filepath.Join(dir, w.Name+".smlc")}
		if err := writeTrace(t.path, w, replayInsts); err != nil {
			return nil, err
		}
		st, err := storemlp.RunTraceFileContext(ctx, t.path, uarch.Default(), replayWarm)
		if err != nil {
			return nil, err
		}
		t.serial = st
		s.traces = append(s.traces, t)
	}
	return s, nil
}

func (s *replaySession) workers() int { return 1 }

func (s *replaySession) op(ctx context.Context, _, i int, sp *spanLog) opResult {
	k := i % len(s.traces)
	t := &s.traces[k]
	start := time.Now()
	id := sp.begin("storemlp.RunTraceFileParallel", -1)
	st, err := storemlp.RunTraceFileParallel(context.WithoutCancel(ctx), t.path, uarch.Default(), replayWarm, s.segs)
	sp.end(id, replayInsts)
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	return opResult{lat: lat, kind: t.name, err: s.check(k, st)}
}

// check holds a parallel replay to the serial reference: the same
// measured instruction count, EPI within the documented drift, and
// bit-identical results across repeats of the same trace.
func (s *replaySession) check(k int, st *epoch.Stats) error {
	t := &s.traces[k]
	if st.Insts != t.serial.Insts {
		return fmt.Errorf("%s: parallel run measured %d insts, serial %d", t.name, st.Insts, t.serial.Insts)
	}
	if d := math.Abs(st.EPI()/t.serial.EPI() - 1); d > replayDrift {
		return fmt.Errorf("%s: parallel EPI %.4f drifts %.3f%% from serial %.4f (bound %.1f%%)",
			t.name, st.EPI(), 100*d, t.serial.EPI(), 100*replayDrift)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first[k] == nil {
		s.first[k] = st
	} else if *s.first[k] != *st {
		return fmt.Errorf("%s: parallel stats differ between repeats", t.name)
	}
	return nil
}

func (s *replaySession) finish(context.Context) (int, error) { return 0, nil }
func (s *replaySession) close()                              { os.RemoveAll(s.dir) }
