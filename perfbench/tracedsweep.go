package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// tracedSweep is the traced run of a sweep workload: an untraced and a
// traced slice of the same sweeps (their difference is the tracing
// overhead), then the per-layer passes.
func (e *env) tracedSweep(ctx context.Context, s *engine.Session, sp sweepSpec, warm sweepRun) (map[string]float64, error) {
	plain, err := e.sweepSlice(ctx, s, sp, e.dur/2, 2, nil, warm.digest)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := e.sweepSlice(ctx, s, sp, e.dur/2, 2, tr, warm.digest)
	if err != nil {
		return nil, err
	}
	untracedE2E, tracedE2E := sweepEndToEnd(plain), sweepEndToEnd(traced)
	untracedE2E["setup_s"], err = measureSweepSetup(sp, e.workers, 51)
	if err != nil {
		return nil, err
	}
	root := tr.start("setup", "setup", 0)
	tracedE2E["setup_s"], err = measureSweepSetup(sp, e.workers, 51)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	overhead(m, untracedE2E, tracedE2E)

	eng, err := e.engineLayers(ctx, []sweepSpec{sp}, [][]sweepRun{traced}, untracedE2E["sweep_s"], tr)
	if err != nil {
		return nil, err
	}
	for k, v := range eng {
		m[k] = v
	}

	// The same grid through the service, hosted in-process, one
	// campaign: the api, server, campaign and resultcache layers on this
	// workload's inputs.
	spec, err := sweepCampaignSpec(sp)
	if err != nil {
		return nil, err
	}
	h, err := e.hostServer(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer h.close()
	specs := &specStream{fresh: []api.CampaignSpec{spec}, seq: []int{0}}
	ld := e.runStreamLoad(ctx, h.base, specs, 1, tr)
	if len(ld.outcomes) != 1 {
		return nil, fmt.Errorf("the service pass did not complete the sweep campaign")
	}
	d := newDigester()
	for _, fr := range ld.outcomes[0].frames {
		d.add(fr.Index, fr.Strategy, fr.BandwidthBps, fr.NodeMTBFSeconds, fr.MC.Engine())
	}
	e.tally.check(d.sum() == warm.digest, "service frames digest %s differs from the in-process sweep's %s", d.sum(), warm.digest)
	svc, err := e.serviceLayers(ctx, h, []streamLoad{ld})
	if err != nil {
		return nil, err
	}
	for k, v := range svc {
		m[k] = v
	}
	for k, v := range e.apiLayers([]api.CampaignSpec{spec}, ld.outcomes[0].frames) {
		m[k] = v
	}
	if err := e.finishTrace(tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

// sweepCampaignSpec encodes a sweep as the campaign spec a client would
// submit for it.
func sweepCampaignSpec(sp sweepSpec) (api.CampaignSpec, error) {
	cfg, err := api.FromConfig(sp.base)
	if err != nil {
		return api.CampaignSpec{}, err
	}
	grid, err := api.FromGrid(sp.grid)
	if err != nil {
		return api.CampaignSpec{}, err
	}
	spec := api.CampaignSpec{Name: "perfbench-sweep", Config: cfg, Grid: grid, Runs: sp.rule.MaxRuns}
	if sp.rule.HalfWidth > 0 {
		spec.Options.TargetCI = &api.TargetCI{HalfWidth: sp.rule.HalfWidth, Confidence: 0.95,
			MinRuns: sp.rule.MinRuns, MaxRuns: sp.rule.MaxRuns}
	}
	return spec, nil
}

// engineLayers measures the engine, stats, sim and lower layers for the
// given sweeps. runs holds each sweep's traced nproc-worker passes;
// sweepS is the untraced nproc-worker time of all the sweeps together.
func (e *env) engineLayers(ctx context.Context, sps []sweepSpec, runs [][]sweepRun, sweepS float64, tr *tracer) (map[string]float64, error) {
	var firsts, gaps []float64
	var pts []probePoint
	var w1 time.Duration
	dedup, runsUsed, ciMax := 0, 0, 0.0
	for i, sp := range sps {
		for _, sw := range runs[i] {
			firsts = append(firsts, ms(sw.waits[0]))
			gaps = append(gaps, msOf(sw.waits[1:])...)
		}
		ref := runs[i][0]
		for j, mc := range ref.results {
			if mc.Cached {
				dedup++
			}
			runsUsed += mc.RunsUsed
			ciMax = max(ciMax, mc.CIHalfWidth)
			pts = append(pts, probePoint{cfg: ref.points[j].Apply(sp.base), runs: mc.RunsUsed, mean: mc.Summary.Mean})
		}
		// The single-worker baseline must reproduce the digest.
		one := engine.NewSession(sp.sessionOptions(1)...)
		sw, err := sweepOnce(ctx, one, sp, tr, fmt.Sprintf("sweep-w1-%d", i))
		if err != nil {
			return nil, err
		}
		e.tally.check(sw.digest == ref.digest, "1-worker sweep digest %s differs from the %d-worker %s", sw.digest, e.workers, ref.digest)
		w1 += sw.total
	}
	m := map[string]float64{
		"engine.grid.first_point_ms":   median(firsts),
		"engine.grid.point_gap_p50_ms": quantile(gaps, 0.5),
		"engine.grid.point_gap_p90_ms": quantile(gaps, 0.9),
		"engine.grid.speedup_w1":       w1.Seconds() / sweepS,
		"engine.grid.dedup_cells":      float64(dedup),
		"stats.runs_used":              float64(runsUsed),
		"stats.ci_half_width_max":      ciMax,
	}
	am, st, err := e.arenaProbe(pts, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range am {
		m[k] = v
	}
	m["engine.grid.busy_frac"] = st.replicateTotal.Seconds() / (sweepS * float64(e.workers))
	lm, err := layerProbes(pts, st, e.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	return m, nil
}

// apiLayers times the wire layer on the workload's specs and frames:
// strict decode plus resolve of each spec, and the NDJSON encoding of
// each point frame.
func (e *env) apiLayers(specs []api.CampaignSpec, frames []api.PointResult) map[string]float64 {
	var decodes, encodes []float64
	bytesTotal := 0
	for _, spec := range specs {
		b, _ := api.EncodeJSON(spec)
		for range 20 {
			t0 := time.Now()
			s, err := api.DecodeCampaignSpec(bytes.NewReader(b))
			if err == nil {
				_, err = s.Resolve()
			}
			decodes = append(decodes, float64(time.Since(t0).Nanoseconds())/1e3)
			e.tally.check(err == nil, "spec %s does not decode and resolve: %v", spec.Name, err)
		}
	}
	for i := range frames {
		fr := api.StreamFrame{Point: &frames[i]}
		for range 20 {
			t0 := time.Now()
			b, _ := api.EncodeJSON(fr)
			encodes = append(encodes, float64(time.Since(t0).Nanoseconds())/1e3)
			bytesTotal += len(b)
		}
	}
	return map[string]float64{
		"api.decode_spec_us":  median(decodes),
		"api.encode_frame_us": median(encodes),
		"api.frame_bytes":     float64(bytesTotal) / float64(len(encodes)),
	}
}
