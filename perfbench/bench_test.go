package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"storemlp"
	"storemlp/internal/uarch"
)

// inputs renders everything a seed generates — the sweep grid, the
// replay trace set (encoded, shortened) and the serve request script —
// into one comparable value.
func inputs(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	for _, c := range buildGrid(seed) {
		b, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	for _, w := range replayWorkloads(seed) {
		var buf bytes.Buffer
		if _, err := storemlp.WriteTraceFormat(&buf, w, uarch.Default(), 20_000, storemlp.TraceColumnar); err != nil {
			t.Fatal(err)
		}
		out = append(out, w.Name, buf.String())
	}
	m := newServeMix(seed)
	for c := 0; c < serveClients; c++ {
		for i := 0; i < 500; i++ {
			k, p, j := m.item(c, i)
			b, err := json.Marshal([]interface{}{k, p, j})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputs(t, 1), inputs(t, 1), inputs(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed generated two different input sets")
	}
	if len(a) != len(c) {
		t.Fatalf("seeds 1 and 2 generated %d and %d inputs", len(a), len(c))
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Only the workload names of the trace set and the script's hot
	// kinds may coincide; specs, traces and points must differ.
	if same > len(a)/2 {
		t.Errorf("seeds 1 and 2 share %d of %d inputs", same, len(a))
	}
}

// TestGridLengths checks the sweep grid's length ladder: each workload's
// groups take every length once, a group's prefetch modes share one
// length, and the order interleaves lengths, so a run's last, partial
// pass holds them in nearly equal shares.
func TestGridLengths(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		grid := buildGrid(seed)
		levels := map[int64]bool{}
		for k := 0; k < cellLevels; k++ {
			levels[cellInsts(k)] = true
		}
		groupLen := map[int]int64{}
		perWorkload := map[string]map[int64]int{}
		for _, c := range grid {
			n := c.spec.Insts
			if !levels[n] {
				t.Fatalf("seed %d: cell length %d is not on the ladder", seed, n)
			}
			if c.perfect {
				continue
			}
			if l, ok := groupLen[c.triple]; ok {
				if l != n {
					t.Errorf("seed %d: group %d has lengths %d and %d", seed, c.triple, l, n)
				}
				continue
			}
			groupLen[c.triple] = n
			w := c.spec.Workload.Name
			if perWorkload[w] == nil {
				perWorkload[w] = map[int64]int{}
			}
			perWorkload[w][n]++
		}
		for w, m := range perWorkload {
			if len(m) != cellLevels {
				t.Errorf("seed %d: %s groups take %d distinct lengths, want %d", seed, w, len(m), cellLevels)
			}
		}
		count := map[int64]int{}
		for i, c := range grid {
			count[c.spec.Insts]++
			lo, hi := len(grid), 0
			for n := range levels {
				lo, hi = min(lo, count[n]), max(hi, count[n])
			}
			if hi-lo > 1 && i < len(grid)-cellLevels {
				t.Fatalf("seed %d: after %d cells the lengths' counts range from %d to %d", seed, i+1, lo, hi)
			}
		}
	}
}

// TestServeMixShape checks the request script has all three kinds and
// that coalesce events line up across the two clients.
func TestServeMixShape(t *testing.T) {
	m := newServeMix(7)
	count := map[int]int{}
	for i := 0; i < 2000; i++ {
		k0, p0, j0 := m.item(0, i)
		k1, p1, j1 := m.item(1, i)
		count[k0]++
		if (k0 == kindCoalesce) != (k1 == kindCoalesce) {
			t.Fatalf("request %d: coalesce events not aligned", i)
		}
		if k0 == kindCoalesce && (p0 != p1 || j0 != j1) {
			t.Fatalf("request %d: clients disagree on the coalesce point", i)
		}
		if k0 == kindCold && p0 == p1 {
			t.Fatalf("request %d: both clients drew the same cold point", i)
		}
	}
	if count[kindHot] == 0 || count[kindCold] == 0 || count[kindCoalesce] != 2000/serveBlock {
		t.Errorf("kinds %v", count)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// contract is the metric list of BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// raceBuild reports whether the test binary was built with -race, which
// slows layers unevenly and so voids the ledger's timing identities.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// checkReport holds a run's record to the contract: every metric
// named, with its unit, and nothing else; every name well formed; with
// checked set, the output check passed.
func checkReport(t *testing.T, rep *report, want []struct{ Name, Unit string }, checked bool) {
	t.Helper()
	if checked && (!rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1) {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.res.Correct, rep.res.Attempted, rep.res.Failed)
	}
	var got, exp []string
	for n, m := range rep.res.Metrics {
		if !nameRe.MatchString(n) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", n)
		}
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("metrics\n got %v\nwant %v", got, exp)
	}
}

// TestSmoke runs every workload briefly, untraced, and one traced run,
// and checks that each passes its output check and reports exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	for _, w := range c.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(context.Background(), options{workload: w.name, seed: 3, seconds: 1, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, c.EndToEnd, true)
		})
	}
	t.Run("traced", func(t *testing.T) {
		rep, err := run(context.Background(), options{workload: "sweep", seed: 3, seconds: 3, trace: true, workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, c.PerLayer, !raceBuild())
	})
}

func TestTailQuantile(t *testing.T) {
	v := make([]float64, 2000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if q, name, beyond := tailQuantile(v); name != "p99" || q != 1980 || beyond != 20 {
		t.Errorf("2000 samples: %v %s %d, want 1980 p99 20", q, name, beyond)
	}
	if q, name, _ := tailQuantile(v[:50]); name != "max" || q != 50 {
		t.Errorf("50 samples: %v %s, want the maximum", q, name)
	}
}

// TestCalibration checks the scaling arithmetic: a loop running at the
// reference speed leaves a timing unchanged, one running twice as slow
// halves it, and throughput is scaled by busy time.
func TestCalibration(t *testing.T) {
	ref, slow := calPoint{d: calRef}, calPoint{d: 2 * calRef}
	if got := calScale(ref, ref); got != 1 {
		t.Errorf("scale at the reference speed = %v, want 1", got)
	}
	if got := calScale(slow, slow); got != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", got)
	}
	lr := &loopResult{lat: []time.Duration{100 * time.Millisecond, 300 * time.Millisecond}, scale: []float64{1, 0.5}}
	if got := lr.calibrated(); got[0] != 100*time.Millisecond || got[1] != 150*time.Millisecond {
		t.Errorf("calibrated latencies %v, want [100ms 150ms]", got)
	}
	if got, want := lr.calThroughput(), 400.0/250; got != want {
		t.Errorf("throughput factor %v, want %v", got, want)
	}
	if d := calibrate(2); d <= 0 {
		t.Errorf("calibrate(2) = %v", d)
	}
}
