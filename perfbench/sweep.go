package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
)

// sweepRun is one timed pass over a sweep grid through Session.Sweep.
type sweepRun struct {
	total time.Duration
	// waits[i] is how long the consumer waited for point i: from the
	// Sweep call (i = 0) or from the previous point.
	waits      []time.Duration
	points     []engine.SweepPoint
	results    []engine.MCResult
	replicates int // simulated, so cache and dedup hits excluded
	digest     string
}

// sweepOnce runs the grid once through the session, timing each point
// as the consumer sees it.
func sweepOnce(ctx context.Context, s *engine.Session, sp sweepSpec, tr *tracer, traceID string) (sweepRun, error) {
	var out sweepRun
	root := tr.start(traceID, "engine.Session.Sweep", 0)
	t0 := time.Now()
	last := t0
	d := newDigester()
	seq, errf := s.Sweep(ctx, sp.base, sp.grid, sp.rule.MaxRuns)
	for pt, mc := range seq {
		now := time.Now()
		tr.record(traceID, "engine.grid.point", root, last, now)
		out.waits = append(out.waits, now.Sub(last))
		last = now
		out.points = append(out.points, pt)
		out.results = append(out.results, mc)
		if !mc.Cached {
			out.replicates += mc.RunsUsed
		}
		d.add(pt.Index, pt.Strategy.Name(), pt.BandwidthBps, pt.NodeMTBFSeconds, mc)
	}
	out.total = time.Since(t0)
	tr.end(root)
	if err := errf(); err != nil {
		return out, fmt.Errorf("sweep: %w", err)
	}
	out.digest = d.sum()
	return out, nil
}

// checkSweep applies the per-point output checks and compares the
// digest with the run's reference.
func (e *env) checkSweep(sw sweepRun, sp sweepSpec, want string) {
	for _, mc := range sw.results {
		err := checkMC(mc, sp.rule)
		e.tally.check(err == nil, "%v", err)
	}
	e.tally.check(sw.digest == want, "sweep digest %s differs from the run's first sweep %s", sw.digest, want)
}

// measureSweepSetup times the sweep's set-up the way a CLI pays it in a
// fresh process: NewSession plus one arena per worker built for the
// first grid point, on memory the process has not used before. Every
// repetition's arenas stay alive until all are done, so none reuses
// another's freed memory. It reports the median in seconds.
func measureSweepSetup(sp sweepSpec, workers, reps int) (float64, error) {
	cfg := sp.grid.Points(sp.base)[0].Apply(sp.base)
	samples := make([]float64, 0, reps)
	keep := make([]*engine.Arena, 0, reps*workers)
	for range reps {
		t0 := time.Now()
		s := engine.NewSession(sp.sessionOptions(workers)...)
		for range workers {
			a, err := engine.NewArena(cfg)
			if err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
			keep = append(keep, a)
		}
		samples = append(samples, time.Since(t0).Seconds())
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(keep)
	return median(samples), nil
}

// sweepSlice runs the grid repeatedly for at least dur (and at least
// minSweeps times), checking each pass against the reference digest.
func (e *env) sweepSlice(ctx context.Context, s *engine.Session, sp sweepSpec, dur time.Duration, minSweeps int, tr *tracer, want string) ([]sweepRun, error) {
	var runs []sweepRun
	start := time.Now()
	for len(runs) < minSweeps || time.Since(start) < dur {
		sw, err := sweepOnce(ctx, s, sp, tr, fmt.Sprintf("sweep-%d", len(runs)))
		if err != nil {
			return nil, err
		}
		e.checkSweep(sw, sp, want)
		runs = append(runs, sw)
	}
	return runs, nil
}

// sweepEndToEnd reduces timed sweeps to the end-to-end metrics. In the
// in-process workloads a sweep plays the part a campaign plays in the
// service: the Sweep call is the submission, its first yielded point is
// the first frame and its last point is the end frame.
func sweepEndToEnd(runs []sweepRun) map[string]float64 {
	var totals, camps, rates, firsts []float64
	var wall time.Duration
	for _, sw := range runs {
		totals = append(totals, sw.total.Seconds())
		camps = append(camps, ms(sw.total))
		rates = append(rates, float64(sw.replicates)/sw.total.Seconds())
		firsts = append(firsts, ms(sw.waits[0]))
		wall += sw.total
	}
	return map[string]float64{
		"sweep_s":            median(totals),
		"replicates_per_s":   median(rates),
		"campaign_p50_ms":    quantile(camps, 0.5),
		"campaign_p90_ms":    quantile(camps, 0.9),
		"first_frame_p50_ms": quantile(firsts, 0.5),
		"first_frame_p90_ms": quantile(firsts, 0.9),
		"campaigns_per_s":    float64(len(runs)) / wall.Seconds(),
	}
}

func runSweepWorkload(ctx context.Context, e *env, sp sweepSpec) (map[string]float64, error) {
	setup, err := measureSweepSetup(sp, e.workers, 51)
	if err != nil {
		return nil, err
	}
	s := engine.NewSession(sp.sessionOptions(e.workers)...)
	// The first pass warms the session's arenas and fixes the reference
	// digest every later pass must reproduce.
	warm, err := sweepOnce(ctx, s, sp, nil, "warm")
	if err != nil {
		return nil, err
	}
	e.checkSweep(warm, sp, warm.digest)
	e.checkDigest(warm.digest)
	var used []float64
	for _, mc := range warm.results {
		used = append(used, float64(mc.RunsUsed))
	}
	e.logf("grid %d points, %d replicates per pass (runs used per point: min %g, median %g, max %g), warm pass %.3fs",
		len(warm.points), warm.replicates, quantile(used, 0), median(used), quantile(used, 1), warm.total.Seconds())

	if e.trace {
		return e.tracedSweep(ctx, s, sp, warm)
	}
	runs, err := e.sweepSlice(ctx, s, sp, e.dur, 3, nil, warm.digest)
	if err != nil {
		return nil, err
	}
	m := sweepEndToEnd(runs)
	m["setup_s"] = setup
	if m["peak_rss_mb"], err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	e.logf("measured %d sweeps; the highest percentile with ten sweeps beyond it is p%d", len(runs), reportablePercentile(len(runs), 10))
	return m, nil
}
