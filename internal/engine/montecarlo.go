package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"

	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/stats"
)

// MCResult aggregates a Monte-Carlo experiment: one strategy evaluated
// over many independently seeded runs (§5: "a large set of initial
// conditions ... is randomly chosen, and we simulate the execution of the
// system over each element of this set for each strategy").
type MCResult struct {
	Strategy string
	// Summary is the candlestick statistic of the waste ratios (mean,
	// deciles, quartiles, extremes), computed exactly over every folded
	// run by stats.Summarize.
	Summary stats.Summary
	// MeanUtilization and MeanFailures summarise secondary outputs.
	MeanUtilization float64
	MeanFailures    float64
	// Results keeps the per-run details, in run order (nil unless
	// MCOptions.KeepResults).
	Results []Result
	// RunsUsed is the number of replicates actually simulated and folded
	// into the aggregates: the requested count on a fixed-runs
	// experiment, possibly fewer under sequential stopping (TargetCI).
	RunsUsed int
	// CIHalfWidth is the half-width of the two-sided confidence interval
	// on the estimator mean at Confidence, from the Welford standard
	// error: the mean waste ratio normally, the mean of antithetic pair
	// averages in antithetic mode, and the mean paired difference for
	// the non-reference entries of Session.ComparePaired. +Inf below two
	// estimator observations.
	CIHalfWidth float64
	// Confidence is the level CIHalfWidth was computed at (default 0.95).
	Confidence float64
	// Cached marks a result served from a result cache — or deduplicated
	// against an identical earlier cell of the same grid — instead of
	// being simulated. The values are bit-identical to a fresh
	// simulation either way; the flag only records provenance.
	Cached bool
}

// mcResultJSON is MCResult's one JSON form, shared by the service wire
// frames, the campaign journal and the result cache's disk tier. JSON
// cannot carry the +Inf half-width below two estimator observations, so
// it travels as ci_half_width 0 plus ci_half_width_inf. The per-run
// Results follow only when present (a pointer keeps an empty non-nil
// slice distinct from an absent one).
type mcResultJSON struct {
	Strategy        string        `json:"strategy"`
	Summary         stats.Summary `json:"summary"`
	MeanUtilization float64       `json:"mean_utilization"`
	MeanFailures    float64       `json:"mean_failures"`
	RunsUsed        int           `json:"runs_used"`
	CIHalfWidth     float64       `json:"ci_half_width"`
	CIHalfWidthInf  bool          `json:"ci_half_width_inf,omitempty"`
	Confidence      float64       `json:"confidence"`
	Cached          bool          `json:"cached,omitempty"`
	Results         *[]Result     `json:"results,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (mc MCResult) MarshalJSON() ([]byte, error) {
	j := mcResultJSON{
		Strategy:        mc.Strategy,
		Summary:         mc.Summary,
		MeanUtilization: mc.MeanUtilization,
		MeanFailures:    mc.MeanFailures,
		RunsUsed:        mc.RunsUsed,
		CIHalfWidth:     mc.CIHalfWidth,
		Confidence:      mc.Confidence,
		Cached:          mc.Cached,
	}
	if math.IsInf(mc.CIHalfWidth, 1) {
		j.CIHalfWidth, j.CIHalfWidthInf = 0, true
	}
	if mc.Results != nil {
		j.Results = &mc.Results
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (mc *MCResult) UnmarshalJSON(b []byte) error {
	var j mcResultJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*mc = MCResult{
		Strategy:        j.Strategy,
		Summary:         j.Summary,
		MeanUtilization: j.MeanUtilization,
		MeanFailures:    j.MeanFailures,
		RunsUsed:        j.RunsUsed,
		CIHalfWidth:     j.CIHalfWidth,
		Confidence:      j.Confidence,
		Cached:          j.Cached,
	}
	if j.CIHalfWidthInf {
		mc.CIHalfWidth = math.Inf(1)
	}
	if j.Results != nil {
		mc.Results = *j.Results
	}
	return nil
}

// MCOptions selects what a Monte-Carlo experiment materialises and how
// it replicates. Every experiment keeps its waste ratios privately (8
// bytes per folded run) for the exact candlestick Summary; the zero value
// retains nothing else. Session configures the same choices through the
// WithKeepResults / WithOnResult / WithTargetCI / WithAntithetic options.
type MCOptions struct {
	// KeepResults retains every per-run Result in MCResult.Results —
	// convenient for small experiments, O(runs) memory.
	KeepResults bool
	// OnResult, when non-nil, receives every run's Result in strict run
	// order (i ascending, 0-based). The Result is passed by value; the
	// callback runs on the caller's goroutine.
	OnResult func(i int, r Result)
	// TargetCI enables sequential stopping: the experiment halts at the
	// first replicate boundary where the confidence interval on the
	// estimator mean is at least as tight as TargetCI.HalfWidth. The
	// zero value keeps the fixed-runs behaviour.
	TargetCI TargetCI
	// Antithetic pairs replicates (2i, 2i+1) on the same replicate seed
	// with the odd member drawing from the complemented uniform streams
	// (rng.SetAntithetic): pair averages estimate the same mean with the
	// first-order noise cancelled. Per-run outputs (Results, OnResult,
	// Summary) stay per-replicate; only the CI estimator and
	// sequential stopping operate on the pair averages. Use an even run
	// count — a trailing unpaired replicate still counts in the summary
	// but not in the CI estimator.
	Antithetic bool
	// ciValue, when non-nil, maps run i's waste ratio to the value the
	// CI estimator (and sequential stopping) accumulates — the hook
	// ComparePaired uses to stop on the paired difference against a
	// reference series instead of the raw mean.
	ciValue func(i int, wasteRatio float64) float64
	// prefix holds the outcomes of runs 0..len(prefix)-1 of an
	// interrupted experiment (not with KeepResults): they refold before
	// dispatch starts at run len(prefix) — the crash-resilience seam of
	// Session.MonteCarloResume.
	prefix []Result
}

// TargetCI configures sequential stopping for a Monte-Carlo experiment:
// run at least MinRuns and at most MaxRuns replicates, halting as soon
// as the Welford-based confidence interval on the estimator mean is no
// wider than ±HalfWidth at the Confidence level. The half-width uses
// the normal critical value, so MinRuns also guards small-sample
// validity. A zero HalfWidth disables sequential stopping.
type TargetCI struct {
	// HalfWidth is the target half-width of the confidence interval on
	// the estimator mean (same units as the waste ratio). <= 0 disables.
	HalfWidth float64
	// Confidence is the interval's confidence level; 0 selects 0.95.
	Confidence float64
	// MinRuns is the minimum replicate count before the stopping rule is
	// consulted; 0 selects 8 (and it is never below 2 — the variance
	// needs two observations).
	MinRuns int
	// MaxRuns caps the experiment; 0 falls back to the runs argument of
	// the experiment, so a plain MonteCarlo(ctx, cfg, n) with a target
	// CI never exceeds its requested budget.
	MaxRuns int
}

// withDefaults resolves the documented zero-value defaults.
func (t TargetCI) withDefaults() TargetCI {
	if t.Confidence == 0 {
		t.Confidence = 0.95
	}
	if t.MinRuns == 0 {
		t.MinRuns = 8
	}
	if t.MinRuns < 2 {
		t.MinRuns = 2
	}
	return t
}

// normWorkers resolves the worker count: 0 means GOMAXPROCS, and never
// more workers than runs (never negative — an invalid run count resolves
// to zero workers and is rejected by the grid scheduler's validation).
func normWorkers(runs, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers < 0 {
		workers = 0
	}
	return workers
}

// mcFold is the aggregation state of one Monte-Carlo experiment: every
// run's Result folds in strict run order through fold, and finalize
// produces the MCResult. It is the single home of the fold semantics;
// the grid scheduler folds every point of every experiment through it.
type mcFold struct {
	opts    MCOptions
	seq     TargetCI
	seqOn   bool
	total   int // replicate budget (MaxRuns under sequential stopping)
	minRuns int // stopping-rule floor, rounded up to a pair boundary
	// progress, when set, observes each folded run.
	progress func()

	mc MCResult
	// wasteRatios holds every folded run's waste ratio in run order, for
	// the exact Summary. It grows by append, never to the replicate cap:
	// a budget can be far larger than the runs a stopping rule uses.
	wasteRatios []float64
	ciAcc       stats.Accumulator
	pairEven    float64 // the even member awaiting its antithetic twin
	util, fails float64
	folded      int
	stopped     bool
}

// newMCFold builds the fold state for one experiment over cfg.
func newMCFold(cfg Config, runs int, opts MCOptions) *mcFold {
	seq := opts.TargetCI.withDefaults()
	seqOn := seq.HalfWidth > 0
	total := runs
	if seqOn && seq.MaxRuns > 0 {
		total = seq.MaxRuns
	}
	minRuns := seq.MinRuns
	if opts.Antithetic && minRuns%2 == 1 {
		minRuns++ // stopping decisions only at pair boundaries
	}
	f := &mcFold{opts: opts, seq: seq, seqOn: seqOn, total: total, minRuns: minRuns}
	f.mc = MCResult{Strategy: cfg.Strategy.Name()}
	return f
}

// refold replays the outcomes of runs 0..len(prefix)-1 through fold
// without reporting them to OnResult again, finishing early when the
// stopping rule fires inside the prefix. Continuing from here is
// bit-identical to never having been interrupted: every later fold sees
// the same accumulator state, and the CRN schedule reproduces the
// remaining replicates exactly.
func (f *mcFold) refold(prefix []Result) {
	hook := f.opts.OnResult
	f.opts.OnResult = nil
	for i, r := range prefix {
		if f.fold(i, r) {
			break
		}
	}
	f.opts.OnResult = hook
}

// fold incorporates run i's result and reports whether the sequential
// stopping rule fired on it. Runs must arrive in strict run order.
func (f *mcFold) fold(i int, r Result) (stop bool) {
	if f.opts.OnResult != nil {
		f.opts.OnResult(i, r)
	}
	if f.opts.KeepResults {
		f.mc.Results = append(f.mc.Results, r)
	}
	f.wasteRatios = append(f.wasteRatios, r.WasteRatio)
	f.util += r.Utilization
	f.fails += float64(r.Failures)
	f.folded++
	v := r.WasteRatio
	if f.opts.ciValue != nil {
		v = f.opts.ciValue(i, v)
	}
	if f.opts.Antithetic {
		if i%2 == 0 {
			f.pairEven = v
		} else {
			f.ciAcc.Add((f.pairEven + v) / 2)
		}
	} else {
		f.ciAcc.Add(v)
	}
	if f.progress != nil {
		f.progress()
	}
	if f.seqOn && f.folded >= f.minRuns && f.folded < f.total &&
		(!f.opts.Antithetic || f.folded%2 == 0) &&
		f.ciAcc.HalfWidth(f.seq.Confidence) <= f.seq.HalfWidth {
		f.stopped = true
	}
	return f.stopped
}

// finalize closes the experiment over the folded prefix.
func (f *mcFold) finalize() MCResult {
	mc := f.mc
	mc.Summary = stats.Summarize(f.wasteRatios)
	mc.MeanUtilization = f.util / float64(f.folded)
	mc.MeanFailures = f.fails / float64(f.folded)
	mc.RunsUsed = f.folded
	mc.Confidence = f.seq.Confidence
	mc.CIHalfWidth = f.ciAcc.HalfWidth(f.seq.Confidence)
	return mc
}

// replicateDraw resolves run index i under the CRN schedule
// (rng.ReplicateSeed: independent of the total run count, so extending
// an experiment reuses earlier runs exactly). In antithetic mode runs
// 2i and 2i+1 share replicate seed i, the odd member drawing the
// complemented uniform streams.
func replicateDraw(masterSeed uint64, i int, antithetic bool) (seed uint64, anti bool) {
	if antithetic {
		return rng.ReplicateSeed(masterSeed, i/2), i%2 == 1
	}
	return rng.ReplicateSeed(masterSeed, i), false
}

// runReplicate simulates run i on worker w's arena under a panic guard: a
// panic anywhere in the simulation (a user-registered strategy, arbiter
// or checkpoint policy) is recovered into a *PanicError instead of taking
// down the process, and the worker's arena — whose mid-replicate state is
// unrecoverable — is dropped so the next replicate rebuilds it from the
// configuration. The faultinject site fires inside the guard, so injected
// panics exercise exactly the recovery path a user panic takes.
func runReplicate(ctx context.Context, arenas []*Arena, w int, reconfigured *bool, cfg Config, i int, antithetic bool) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			arenas[w] = nil
			*reconfigured = false
			err = &PanicError{Run: i, Value: p, Stack: debug.Stack()}
		}
	}()
	if faultinject.Armed() {
		if ferr := faultinject.Fire(ctx, faultinject.SiteWorkerReplicate, i); ferr != nil {
			return Result{}, ferr
		}
	}
	a := arenas[w]
	switch {
	case a == nil:
		if a, err = NewArena(cfg); err != nil {
			return Result{}, fmt.Errorf("worker %d: build arena: %w", w, err)
		}
		arenas[w] = a
		*reconfigured = true
	case !*reconfigured:
		if err = a.Reconfigure(cfg); err != nil {
			return Result{}, fmt.Errorf("worker %d: reconfigure arena: %w", w, err)
		}
		*reconfigured = true
	}
	seed, anti := replicateDraw(cfg.Seed, i, antithetic)
	return a.RunAnti(seed, anti)
}
