package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

func TestReportablePercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {99, 89}, {100, 90}, {199, 94}, {1000, 99}, {5000, 99},
	} {
		if got := reportablePercentile(c.n, 10); got != c.want {
			t.Errorf("reportablePercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	// The rule itself: the reported percentile keeps ten samples beyond
	// its nearest rank, the next one up would not.
	for n := 11; n < 2000; n++ {
		p := reportablePercentile(n, 10)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)/100*float64(n))) }
		if beyond(p) < 10 || (p < 99 && beyond(p+1) >= 10) {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input should give NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSelfTimes(t *testing.T) {
	ns := func(n int) time.Duration { return time.Duration(n) }
	spans := []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ns(50), End: ns(70)},
		{ID: 4, Parent: 2, Name: "a.child", Start: ns(15), End: ns(20)},
		{ID: 5, Name: "lone", Start: ns(0), End: ns(7)},
		{ID: 6, Parent: 5, Name: "open", Start: ns(1), End: -1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 25, 3: 20, 4: 5, 5: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an unclosed span got a self time")
	}
	sums := rootSelfSums(spans, self)
	if sums[1] != 100 || sums[5] != 7 {
		t.Errorf("root sums = %v, want 100 and 7", sums)
	}

	// Overlapping children (concurrent work) cover their union once.
	over := []span{
		{ID: 1, Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Start: ns(10), End: ns(60)},
		{ID: 3, Parent: 1, Start: ns(40), End: ns(80)},
		{ID: 4, Parent: 1, Start: ns(90), End: ns(120)}, // clipped to the parent
	}
	if got := selfTimes(over)[1]; got != 20 {
		t.Errorf("self with overlapping children = %v, want 20", got)
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "y", 0)
	tr.end(id)
	tr.record("x", "y", id, time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded something")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcoopsimd\nVmPeak:\t  900000 kB\nVmHWM:\t  215040 kB\nVmRSS:\t  100 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 210 {
		t.Fatalf("parseVmHWM = %v, %v; want 210 MiB", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
	if v, err := peakRSSMB("self"); err != nil || v <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", v, err)
	}
}

func TestCheckMC(t *testing.T) {
	ok := engine.MCResult{Strategy: "s", RunsUsed: 6, CIHalfWidth: 0.004,
		Summary: stats.Summary{N: 6, Mean: 0.3, Min: 0.2, Max: 0.4, P10: 0.2, P25: 0.25, P50: 0.3, P75: 0.35, P90: 0.4}}
	rule := stopRule{HalfWidth: 0.005, MinRuns: 6, MaxRuns: 8}
	if err := checkMC(ok, rule); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	bad := map[string]func(*engine.MCResult){
		"below min runs":       func(m *engine.MCResult) { m.RunsUsed, m.Summary.N = 5, 5 },
		"above max runs":       func(m *engine.MCResult) { m.RunsUsed, m.Summary.N = 9, 9 },
		"stopped above target": func(m *engine.MCResult) { m.CIHalfWidth = 0.01 },
		"waste above one":      func(m *engine.MCResult) { m.Summary.Max = 1.2 },
		"NaN mean":             func(m *engine.MCResult) { m.Summary.Mean = math.NaN() },
		"summary count":        func(m *engine.MCResult) { m.Summary.N = 7 },
	}
	for name, mutate := range bad {
		m := ok
		mutate(&m)
		if checkMC(m, rule) == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
	// At the cap a wide interval is allowed; fixed runs must match.
	capped := ok
	capped.RunsUsed, capped.Summary.N, capped.CIHalfWidth = 8, 8, 0.05
	if err := checkMC(capped, rule); err != nil {
		t.Errorf("capped result rejected: %v", err)
	}
	if checkMC(ok, stopRule{MinRuns: 4, MaxRuns: 4}) == nil {
		t.Error("fixed-runs rule accepted 6 runs for 4")
	}
}

func TestDigestSensitivity(t *testing.T) {
	mc := engine.MCResult{Strategy: "s", RunsUsed: 4, Summary: stats.Summary{N: 4, Mean: 0.3}}
	sum := func(mc engine.MCResult) string {
		d := newDigester()
		d.add(0, "s", 1e9, 1e8, mc)
		return d.sum()
	}
	base := sum(mc)
	cached := mc
	cached.Cached = true
	if sum(cached) != base {
		t.Error("the Cached provenance flag changed the digest")
	}
	ulp := mc
	ulp.Summary.Mean = math.Nextafter(mc.Summary.Mean, 1)
	if sum(ulp) == base {
		t.Error("a one-ulp change of the mean left the digest unchanged")
	}
}

// tinySweep is a small grid with the paper-sweep's shape, for tests.
func tinySweep() sweepSpec {
	sp := paperSweep(5)
	sp.base.HorizonDays = 10
	sp.grid.Strategies = sp.grid.Strategies[:3]
	sp.grid.BandwidthsBps = sp.grid.BandwidthsBps[:1]
	sp.rule = stopRule{HalfWidth: 0.01, MinRuns: 3, MaxRuns: 5}
	return sp
}

func TestDigestStableAcrossWorkers(t *testing.T) {
	sp := tinySweep()
	digests := map[int]string{}
	for _, w := range []int{1, 2, 3} {
		s := engine.NewSession(sp.sessionOptions(w)...)
		sw, err := sweepOnce(context.Background(), s, sp, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range sw.results {
			if err := checkMC(mc, sp.rule); err != nil {
				t.Errorf("workers=%d: %v", w, err)
			}
		}
		digests[w] = sw.digest
	}
	if digests[1] != digests[2] || digests[1] != digests[3] {
		t.Fatalf("digests differ across worker counts: %v", digests)
	}
}

func TestTracedSweepSelfTimesFitRoot(t *testing.T) {
	sp := tinySweep()
	tr := newTracer()
	s := engine.NewSession(sp.sessionOptions(2)...)
	if _, err := sweepOnce(context.Background(), s, sp, tr, "t"); err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	for id, sum := range rootSelfSums(spans, self) {
		if d := spans[id-1].End - spans[id-1].Start; sum > d {
			t.Errorf("root %d: self times %v exceed its duration %v", id, sum, d)
		}
	}
	if len(spans) != 1+len(sp.grid.Points(sp.base)) {
		t.Errorf("%d spans, want the root and one per point", len(spans))
	}
}

func TestSpecStreamDeterministic(t *testing.T) {
	a, b := newSpecStream(42), newSpecStream(42)
	// Generate one side out of order: entry k must not depend on the
	// order entries were asked for.
	for k := 199; k >= 0; k-- {
		a.at(k)
	}
	for k := range 200 {
		sa, fa := a.at(k)
		sb, fb := b.at(k)
		ja, _ := json.Marshal(sa)
		jb, _ := json.Marshal(sb)
		if fa != fb || string(ja) != string(jb) {
			t.Fatalf("submission %d differs between two streams of one seed", k)
		}
		if err := sa.Validate(); err != nil {
			t.Fatalf("submission %d does not validate: %v", k, err)
		}
	}
	if frac := float64(200-len(a.fresh)) / 200; math.Abs(frac-repeatShare) > 0.1 {
		t.Errorf("%.2f of the submissions repeat an earlier spec, want about %v", frac, repeatShare)
	}
	c := newSpecStream(43)
	sc, _ := c.at(0)
	sa, _ := a.at(0)
	if sc.Config.Seed == sa.Config.Seed {
		t.Error("different seeds gave the same first spec")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndUnits)
	same("per_layer", bj.PerLayer, perLayerUnits)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads %s in BENCHMARK.json, %s in the program", got, want)
	}
}
