package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// streamCfg is a small but non-trivial Monte-Carlo configuration.
func streamCfg() Config {
	return Config{
		Platform:    platform.Cielo(40, 2),
		Classes:     workload.APEXClasses(),
		Strategy:    LeastWaste(),
		Seed:        42,
		HorizonDays: 20,
	}
}

// TestMonteCarloStreamMatchesBatch proves the streaming path reproduces
// the batch experiment exactly: same seeds, identical per-run order and
// an identical MCResult apart from the Results the batch path retains.
func TestMonteCarloStreamMatchesBatch(t *testing.T) {
	const runs = 12
	cfg := streamCfg()

	batch, err := sessionMC(cfg, runs, WithWorkers(3), WithKeepResults(true))
	if err != nil {
		t.Fatal(err)
	}

	var streamed []Result
	mc, err := sessionMC(cfg, runs, WithWorkers(3), WithOnResult(func(i int, r Result) {
		if i != len(streamed) {
			t.Fatalf("OnResult index %d, want %d (strict run order)", i, len(streamed))
		}
		streamed = append(streamed, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Results != nil {
		t.Fatal("streaming path retained per-run Results")
	}
	if !reflect.DeepEqual(streamed, batch.Results) {
		t.Fatalf("streamed results differ from batch")
	}
	batch.Results = nil
	if !reflect.DeepEqual(mc, batch) {
		t.Fatalf("stream result %+v != batch %+v", mc, batch)
	}
}

// TestMonteCarloStreamLargeReplication is the large-replication check: a
// streaming experiment far past any small-sample window summarises its
// waste ratios exactly — its Summary is Summarize over the streamed
// values, bit for bit, and the whole MCResult equals the plain path's.
// The replication count is trimmed under -short.
func TestMonteCarloStreamLargeReplication(t *testing.T) {
	runs := 10_000
	if testing.Short() {
		runs = 300
	}
	cfg := streamCfg()
	cfg.HorizonDays = 3
	cfg.Strategy = OrderedDaly()

	plain, err := sessionMC(cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	collected := make([]float64, 0, runs)
	stream, err := sessionMC(cfg, runs, WithOnResult(func(i int, r Result) {
		collected = append(collected, r.WasteRatio)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stream.Results != nil || plain.Results != nil {
		t.Fatal("experiment retained per-run Results without KeepResults")
	}
	if got := stats.Summarize(collected); got != stream.Summary {
		t.Fatalf("stream summary %+v != Summarize(streamed) %+v", stream.Summary, got)
	}
	if !reflect.DeepEqual(stream, plain) {
		t.Fatalf("stream result %+v != plain %+v", stream, plain)
	}
}

// TestMonteCarloBuffersGrowWithFoldedRuns: a replicate cap far above the
// runs a stopping rule uses must not be allocated up front — neither for
// the waste ratios every experiment keeps nor for KeepResults.
func TestMonteCarloBuffersGrowWithFoldedRuns(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 3)
	const budget = 1 << 22
	for _, keep := range []bool{false, true} {
		s := NewSession(WithWorkers(1), WithKeepResults(keep), WithTargetCI(10, 0, 0, 0))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mc, err := s.MonteCarlo(context.Background(), cfg, budget)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if mc.RunsUsed != 8 {
			t.Fatalf("keep=%v: RunsUsed = %d, want the MinRuns default 8", keep, mc.RunsUsed)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
			t.Fatalf("keep=%v: an 8-run experiment with a %d-run cap allocated %.1f MB, want < 8 MB",
				keep, budget, float64(d)/(1<<20))
		}
	}
}

// TestMonteCarloStreamErrorPropagation: an invalid configuration
// surfaces the smallest failing run index, like the batch path.
func TestMonteCarloStreamErrorPropagation(t *testing.T) {
	cfg := streamCfg()
	cfg.Platform.Nodes = 0 // invalid: every run fails
	if _, err := sessionMC(cfg, 4, WithWorkers(2)); err == nil {
		t.Fatal("streaming Monte-Carlo swallowed the run error")
	}
}
