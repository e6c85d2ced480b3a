package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestWorkerPanicRecovered pins the panic-isolation contract: a panic in
// a worker's replicate (here injected, in production a user-registered
// strategy or arbiter) no longer takes down the process — it surfaces as
// a *PanicError on the experiment, the remaining workers drain, and the
// goroutine count settles back to the pre-experiment level.
func TestWorkerPanicRecovered(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("injected worker panic", func(detail any) bool {
			return detail.(int) == 7
		}))
	defer restore()

	s := NewSession(WithWorkers(4))
	_, err := s.MonteCarlo(context.Background(), tinyConfig(OrderedNBDaly(), 3), 64)
	if err == nil {
		t.Fatal("experiment with a panicking replicate reported success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *PanicError", err, err)
	}
	if pe.Run != 7 {
		t.Fatalf("PanicError.Run = %d, want 7", pe.Run)
	}
	if pe.Value != "injected worker panic" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	checkNoGoroutineLeak(t, before)

	// The session survives the poisoned experiment: the panicking arena
	// slot was dropped, and the next experiment on the same session
	// rebuilds it and produces the exact un-poisoned result.
	restore()
	want, err := NewSession(WithWorkers(4)).MonteCarlo(context.Background(), tinyConfig(OrderedNBDaly(), 3), 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MonteCarlo(context.Background(), tinyConfig(OrderedNBDaly(), 3), 16)
	if err != nil {
		t.Fatalf("session did not survive a recovered panic: %v", err)
	}
	if got.Summary != want.Summary {
		t.Fatalf("post-panic session summary %+v != fresh %+v", got.Summary, want.Summary)
	}
	checkNoGoroutineLeak(t, before)
}

// TestWorkerHangHonoursDeadline: a worker stalled in cancellable user
// code (the faultinject hang blocks on ctx) is cut short by a per-point
// deadline instead of wedging the experiment forever.
func TestWorkerHangHonoursDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.HangUntilCancel())
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := NewSession(WithWorkers(2)).MonteCarlo(ctx, tinyConfig(OrderedNBDaly(), 3), 100)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung experiment returned %v, want context.DeadlineExceeded", err)
	}
	checkNoGoroutineLeak(t, before)
}

// outcomes runs the experiment uninterrupted and returns its result
// together with every folded run's outcome, trimmed to the three values
// the campaign journal records per replicate.
func outcomes(t *testing.T, cfg Config, runs int, opts ...SessionOption) (MCResult, []Result) {
	t.Helper()
	var outs []Result
	s := NewSession(append(opts, WithOnResult(func(_ int, r Result) {
		outs = append(outs, Result{WasteRatio: r.WasteRatio, Utilization: r.Utilization, Failures: r.Failures})
	}))...)
	full, err := s.MonteCarlo(context.Background(), cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	return full, outs
}

// resumeFrom resumes the experiment from prefix on a fresh session and
// checks that the refolded prefix reaches neither the OnResult hook nor
// progress again: both observe only runs len(prefix) onwards.
func resumeFrom(t *testing.T, cfg Config, runs int, prefix []Result, opts ...SessionOption) MCResult {
	t.Helper()
	next := len(prefix)
	s := NewSession(append(opts,
		WithOnResult(func(i int, _ Result) {
			if i != next {
				t.Fatalf("resume at %d: OnResult saw run %d, want %d", len(prefix), i, next)
			}
			next++
		}),
		WithProgress(func(done, _ int) {
			if done != next {
				t.Fatalf("resume at %d: progress %d after run %d", len(prefix), done, next-1)
			}
		}))...)
	got, err := s.MonteCarloResume(context.Background(), cfg, runs, prefix)
	if err != nil {
		t.Fatalf("resume at %d: %v", len(prefix), err)
	}
	if next != got.RunsUsed {
		t.Fatalf("resume at %d: OnResult reached run %d, RunsUsed %d", len(prefix), next, got.RunsUsed)
	}
	return got
}

// TestMonteCarloResumeBitIdentity pins the resume contract at every cut
// point: run the experiment uninterrupted; then, for every prefix length
// k, refold the first k journaled outcomes into a fresh session and run
// the remaining replicates. Every aggregate of the resumed result must
// equal the uninterrupted one bit for bit.
func TestMonteCarloResumeBitIdentity(t *testing.T) {
	cfg := tinyConfig(LeastWaste(), 5)
	const runs = 24
	full, outs := outcomes(t, cfg, runs, WithWorkers(3))
	if len(outs) != runs {
		t.Fatalf("got %d outcomes, want one per replicate (%d)", len(outs), runs)
	}
	for k := 0; k <= runs; k++ {
		got := resumeFrom(t, cfg, runs, outs[:k], WithWorkers(2))
		if got.Summary != full.Summary ||
			got.MeanUtilization != full.MeanUtilization ||
			got.MeanFailures != full.MeanFailures ||
			got.RunsUsed != full.RunsUsed ||
			got.CIHalfWidth != full.CIHalfWidth {
			t.Fatalf("resume at %d diverges:\n got %+v (util %v fails %v ci %v)\nwant %+v (util %v fails %v ci %v)",
				k, got.Summary, got.MeanUtilization, got.MeanFailures, got.CIHalfWidth,
				full.Summary, full.MeanUtilization, full.MeanFailures, full.CIHalfWidth)
		}
	}
}

// TestMonteCarloResumeAntithetic: resume across antithetic pair
// boundaries — including odd, mid-pair prefixes, whose last outcome is
// the even member awaiting its twin — stays bit-identical.
func TestMonteCarloResumeAntithetic(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 9)
	const runs = 16
	full, outs := outcomes(t, cfg, runs, WithWorkers(2), WithAntithetic(true))
	for k := 0; k <= runs; k++ {
		got := resumeFrom(t, cfg, runs, outs[:k], WithWorkers(3), WithAntithetic(true))
		if got.Summary != full.Summary || got.CIHalfWidth != full.CIHalfWidth {
			t.Fatalf("antithetic resume at %d diverges", k)
		}
	}
}

// TestMonteCarloResumeSequentialStopping: a sequentially stopped
// experiment resumed from any prefix stops at the same replicate with
// the same interval as the uninterrupted run — including the prefix that
// ends at the stopping replicate itself, which must finish there rather
// than run one replicate past the stop.
func TestMonteCarloResumeSequentialStopping(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(OrderedNBDaly(), 2)
	const maxRuns = 200

	probe, err := NewSession(WithWorkers(2)).MonteCarlo(ctx, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A target a bit looser than the 16-run interval stops between
	// minRuns and maxRuns.
	target := probe.CIHalfWidth * 1.2
	stopping := []SessionOption{WithWorkers(2), WithTargetCI(target, 0.95, 8, maxRuns)}
	full, outs := outcomes(t, cfg, maxRuns, stopping...)
	if full.RunsUsed >= maxRuns || full.RunsUsed < 8 {
		t.Fatalf("stopping did not engage (RunsUsed %d)", full.RunsUsed)
	}
	for k := 1; k <= full.RunsUsed; k++ {
		got := resumeFrom(t, cfg, maxRuns, outs[:k], stopping...)
		if got.RunsUsed != full.RunsUsed || got.Summary != full.Summary || got.CIHalfWidth != full.CIHalfWidth {
			t.Fatalf("resume at %d: runs %d ci %v, want runs %d ci %v",
				k, got.RunsUsed, got.CIHalfWidth, full.RunsUsed, full.CIHalfWidth)
		}
	}
}

// TestResumeRequiresStreamingPath: resume cannot restore per-run
// Results, so it refuses KeepResults, and never runs past the
// experiment's budget.
func TestResumeRequiresStreamingPath(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(OrderedNBDaly(), 1)
	prefix := make([]Result, 2)
	_, err := NewSession(WithKeepResults(true)).MonteCarloResume(ctx, cfg, 4, prefix)
	if err == nil || !strings.Contains(err.Error(), "streaming path") {
		t.Fatalf("materialising resume accepted (err %v)", err)
	}
	_, err = NewSession().MonteCarloResume(ctx, cfg, 4, make([]Result, 9))
	if err == nil || !strings.Contains(err.Error(), "holds 9 replicates") {
		t.Fatalf("overlong prefix accepted (err %v)", err)
	}
}

// TestMonteCarloResumeComplete: a prefix that already holds every
// replicate yields the finished result without dispatching any work.
func TestMonteCarloResumeComplete(t *testing.T) {
	cfg := tinyConfig(OrderedNBDaly(), 4)
	const runs = 8
	full, outs := outcomes(t, cfg, runs, WithWorkers(2))
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("complete resume simulated", func(any) bool { return true }))
	defer restore()
	got := resumeFrom(t, cfg, runs, outs, WithWorkers(2))
	if got.Summary != full.Summary || got.RunsUsed != runs {
		t.Fatalf("complete-prefix resume diverges: %+v vs %+v", got.Summary, full.Summary)
	}
}
