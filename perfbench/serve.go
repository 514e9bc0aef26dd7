package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"storemlp/internal/digest"
	"storemlp/internal/obs"
	"storemlp/internal/server"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// The serve traffic mix. Each client sends a coalesce request every
// serveBlock requests; the rest are hot repeats (serveHotPct percent)
// or fresh cold points. The result cache holds fewer entries than the
// run's distinct points, so cold inserts evict while hot keys hit.
const (
	serveClients      = 2 // a coalesce pair needs two concurrent callers
	serveHotPoints    = 16
	serveCacheEntries = 64
	serveBlock        = 40
	serveHotPct       = 95
	pointInsts        = 20_000
	pointWarm         = 10_000
)

var serveWorkloads = []string{"database", "tpcw", "specjbb", "specweb"}

// servePoint is one simulation a client asks for.
type servePoint struct {
	Workload         string
	Seed             int64
	Prefetch, SB, SQ int
}

// pointFrom draws a point from a 64-bit hash.
func pointFrom(h uint64) servePoint {
	return servePoint{
		Workload: serveWorkloads[h%4],
		Seed:     int64(splitmix(h)>>1) | 1,
		Prefetch: int(h>>8) % 3,
		SB:       gridSB[int(h>>16)%len(gridSB)],
		SQ:       gridSQ[int(h>>24)%len(gridSQ)],
	}
}

func (p servePoint) request() server.RunRequest {
	pf, sb, sq := p.Prefetch, p.SB, p.SQ
	return server.RunRequest{
		Workload: p.Workload, Seed: p.Seed, Insts: pointInsts, Warm: pointWarm,
		Config: &server.ConfigPatch{StorePrefetch: &pf, StoreBuffer: &sb, StoreQueue: &sq},
	}
}

// spec is the sim.Spec the server resolves the point's request to; the
// response digest proves the two agree.
func (p servePoint) spec() (sim.Spec, error) {
	w, err := workload.ByName(p.Workload, p.Seed)
	if err != nil {
		return sim.Spec{}, err
	}
	cfg := uarch.Default()
	cfg.StorePrefetch = []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2}[p.Prefetch]
	cfg.StoreBuffer, cfg.StoreQueue = p.SB, p.SQ
	return sim.Spec{Workload: w, Uarch: cfg, Insts: pointInsts, Warm: pointWarm, Parallel: 1}, nil
}

// Request kinds in the mix.
const (
	kindHot = iota
	kindCold
	kindCoalesce
)

// serveMix is a seed's request script: item(c, i) is client c's i-th
// request.
type serveMix struct {
	seed int64
	hot  []servePoint
}

func newServeMix(seed int64) serveMix {
	m := serveMix{seed: seed}
	for k := 0; k < serveHotPoints; k++ {
		m.hot = append(m.hot, pointFrom(m.hash(1, uint64(k))))
	}
	return m
}

func (m serveMix) hash(stream, i uint64) uint64 {
	return splitmix(splitmix(uint64(m.seed)^stream<<56) + i)
}

// item returns client c's i-th request: its kind, its point and, for a
// coalesce request, the event number both clients share.
func (m serveMix) item(c, i int) (int, servePoint, int) {
	if i%serveBlock == serveBlock-1 {
		j := i / serveBlock
		return kindCoalesce, pointFrom(m.hash(2, uint64(j))), j
	}
	h := m.hash(3+uint64(c), uint64(i))
	if h%100 < serveHotPct {
		return kindHot, m.hot[(h>>32)%serveHotPoints], -1
	}
	return kindCold, pointFrom(splitmix(h)), -1
}

// seen is what one client recorded about one point: its first
// response and how many responses it got.
type seen struct {
	resp server.RunResponse
	n    int
}

// serveSession is mlpsimd's handler behind a loopback listener with
// keep-alive, driven by two closed-loop clients.
type serveSession struct {
	mix    serveMix
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	before []obs.Family // /metrics scraped when set-up ended

	mu      sync.Mutex
	waiting map[int]chan struct{} // guarded by mu: first arrival per coalesce event

	// Per-client records, each written by its client only: the first
	// response per point, the points that missed, and the coalesce
	// pairs joined.
	seen   [serveClients]map[servePoint]*seen
	missed [serveClients][]servePoint
	pairs  [serveClients]int
	direct map[servePoint]time.Duration // set by finish
}

func newServe(ctx context.Context, seed int64, _ string) (session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSession{
		mix: newServeMix(seed),
		srv: server.New(server.Config{
			Workers:      runtime.GOMAXPROCS(0),
			CacheEntries: serveCacheEntries,
			Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		url:     "http://" + ln.Addr().String(),
		waiting: map[int]chan struct{}{},
	}
	for c := range s.seen {
		s.seen[c] = map[servePoint]*seen{}
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	// Warm the hot set: each hot point's first request misses and fills
	// the cache.
	for _, p := range s.mix.hot {
		if _, err := s.post(ctx, p, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.before, err = s.scrape(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSession) workers() int { return serveClients }

// post sends one /v1/run request and decodes the response.
func (s *serveSession) post(ctx context.Context, p servePoint, sp *spanLog) (server.RunResponse, error) {
	var resp server.RunResponse
	root := sp.begin("serve.request", -1)
	defer sp.end(root, 1)
	id := sp.begin("json.Marshal", root)
	body, err := json.Marshal(p.request())
	sp.end(id, 1)
	if err != nil {
		return resp, err
	}
	id = sp.begin("http.Client.Do", root)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := s.client.Do(req)
	sp.end(id, 1)
	if err != nil {
		return resp, err
	}
	defer hr.Body.Close()
	id = sp.begin("json.Decode", root)
	err = json.NewDecoder(hr.Body).Decode(&resp)
	sp.end(id, 1)
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("POST /v1/run: status %d", hr.StatusCode)
	}
	return resp, err
}

// meet blocks until the other client reaches coalesce event j, so both
// send its request together. It reports false if the window closed
// first.
func (s *serveSession) meet(ctx context.Context, j int) bool {
	s.mu.Lock()
	if ch, ok := s.waiting[j]; ok {
		delete(s.waiting, j)
		s.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	s.waiting[j] = ch
	s.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *serveSession) op(ctx context.Context, c, i int, sp *spanLog) opResult {
	kind, p, j := s.mix.item(c, i)
	if kind == kindCoalesce && !s.meet(ctx, j) {
		return opResult{skip: true}
	}
	start := time.Now()
	resp, err := s.post(context.WithoutCancel(ctx), p, sp)
	lat := time.Since(start)
	if err != nil {
		return opResult{err: err}
	}
	k := "miss"
	switch {
	case resp.Cached:
		k = "hit"
	case resp.Coalesced:
		k = "coalesced"
	default:
		s.missed[c] = append(s.missed[c], p)
	}
	if kind == kindCoalesce {
		s.pairs[c]++
	}
	return opResult{lat: lat, kind: k, err: s.record(c, p, resp)}
}

// record checks a response against the client's first response for the
// same point; finish checks the first responses against direct runs.
func (s *serveSession) record(c int, p servePoint, resp server.RunResponse) error {
	first, ok := s.seen[c][p]
	if !ok {
		s.seen[c][p] = &seen{resp: resp, n: 1}
		return nil
	}
	first.n++
	if resp.Digest != first.resp.Digest || resp.Result != first.resp.Result {
		return fmt.Errorf("%+v: response %+v differs from the first for the same spec %+v", p, resp.Result, first.resp.Result)
	}
	return nil
}

// finish checks every response against a direct sim run of the same
// spec: the response digest must be the spec's digest and the result
// must equal the direct run's. Repeats were checked against the first
// response as they arrived, so a wrong first response fails all of its
// point's operations. The direct runs share a sim.Pool and run on as
// many goroutines as the server had workers.
func (s *serveSession) finish(ctx context.Context) (int, error) {
	want := map[servePoint]server.RunResult{}
	s.direct = map[servePoint]time.Duration{}
	var todo []servePoint
	for _, m := range s.seen {
		for p := range m {
			if _, ok := want[p]; !ok {
				want[p] = server.RunResult{}
				todo = append(todo, p)
			}
		}
	}
	pool := sim.NewPool()
	type outcome struct {
		res server.RunResult
		dur time.Duration
		err error
	}
	outs := make([]outcome, len(todo))
	var wg sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += n {
				spec, err := todo[i].spec()
				if err != nil {
					outs[i].err = err
					continue
				}
				start := time.Now()
				st, err := pool.RunContext(ctx, spec)
				outs[i].dur = time.Since(start)
				if err != nil {
					outs[i].err = err
					continue
				}
				outs[i].res = server.RunResult{
					ConfigName:              spec.Uarch.Name(),
					Insts:                   st.Insts,
					Epochs:                  st.Epochs,
					EPI:                     st.EPI(),
					MLP:                     st.MLP(),
					StoreMLP:                st.StoreMLP(),
					OffChipCPI:              st.OffChipCPI(spec.Uarch.MissPenalty),
					OverlappedStoreFraction: st.OverlappedStoreFraction(),
					StoreMisses:             st.StoreMisses,
					LoadMisses:              st.LoadMisses,
					InstMisses:              st.InstMisses,
					SMACAccelerated:         st.SMACAccelerated,
					Segments:                sim.Segments(spec),
				}
			}
		}(w)
	}
	wg.Wait()
	for i, p := range todo {
		if outs[i].err != nil {
			return 0, fmt.Errorf("direct run of %+v: %w", p, outs[i].err)
		}
		want[p] = outs[i].res
		s.direct[p] = outs[i].dur
	}
	var errs []error
	failed := 0
	for _, m := range s.seen {
		for p, r := range m {
			spec, _ := p.spec()
			var err error
			switch {
			case r.resp.Digest != digest.Sum(spec):
				err = fmt.Errorf("%+v: response digest %s is not the spec's", p, r.resp.Digest)
			case r.resp.Result != want[p]:
				err = fmt.Errorf("%+v: response %+v differs from a direct run %+v", p, r.resp.Result, want[p])
			}
			if err != nil {
				errs = append(errs, err)
				failed += r.n
			}
		}
	}
	reportErrors(errs)
	return failed, nil
}

// scrape reads and parses /metrics.
func (s *serveSession) scrape(ctx context.Context) ([]obs.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	hr, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	return obs.ParseExposition(hr.Body)
}

func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.srv.Close()
	s.client.CloseIdleConnections()
}
