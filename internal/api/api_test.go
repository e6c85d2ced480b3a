package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestConfigRoundTripKeyStable pins the core wire contract: encoding an
// engine config to the wire, decoding it strictly, and resolving it
// back must land on the same engine.ExperimentKey — for every
// registered strategy crossed with every scheduler. A drift here means
// an HTTP submission silently simulates a different experiment than the
// in-process call.
func TestConfigRoundTripKeyStable(t *testing.T) {
	for _, strat := range engine.AllStrategies() {
		for _, sched := range engine.SchedulerNames() {
			cfg := engine.Config{
				Platform:    mustPlatform(t, "cielo", 40, 2),
				Classes:     workload.APEXClasses(),
				Strategy:    strat,
				Seed:        7,
				Scheduler:   sched,
				HorizonDays: 3,
				Channels:    2,
			}
			wantKey, ok := engine.ExperimentKey(cfg, 5, engine.MCOptions{})
			if !ok {
				t.Fatalf("%s/%s: base config not cacheable", strat.Name(), sched)
			}

			wire, err := FromConfig(cfg)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", strat.Name(), sched, err)
			}
			spec := CampaignSpec{Config: wire, Runs: 5}
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeCampaignSpec(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s/%s: strict decode of own encoding: %v", strat.Name(), sched, err)
			}
			res, err := decoded.Resolve()
			if err != nil {
				t.Fatalf("%s/%s: resolve: %v", strat.Name(), sched, err)
			}
			gotKey, ok := engine.ExperimentKey(res.Base, res.Runs, engine.MCOptions{})
			if !ok {
				t.Fatalf("%s/%s: resolved config not cacheable", strat.Name(), sched)
			}
			if gotKey != wantKey {
				t.Errorf("%s/%s: ExperimentKey drifted across the wire:\n got %s\nwant %s",
					strat.Name(), sched, gotKey, wantKey)
			}
		}
	}
}

func mustPlatform(t *testing.T, name string, bwGBps, mtbfYears float64) platform.Platform {
	t.Helper()
	wire := Platform{Name: name, BandwidthGBps: bwGBps, NodeMTBFYears: mtbfYears}
	plat, err := wire.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

// TestGridRoundTrip pins that a full sweep grid survives the wire with
// all five axes intact.
func TestGridRoundTrip(t *testing.T) {
	grid := engine.SweepGrid{
		BandwidthsBps:   []float64{units.GBps(40), units.GBps(80)},
		NodeMTBFSeconds: []float64{units.Years(2)},
		FailureSpecs: []engine.FailureSpec{
			{Model: mustFailure(t, "exponential")},
			{Model: mustFailure(t, "weibull"), WeibullShape: 0.7},
		},
		Channels:   []int{1, 2},
		Strategies: engine.AllStrategies()[:3],
	}
	wire, err := FromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Config{
		Platform:    mustPlatform(t, "cielo", 40, 2),
		Classes:     workload.APEXClasses(),
		HorizonDays: 3,
	}
	want := grid.Points(base)
	got := back.Points(base)
	if len(want) != len(got) {
		t.Fatalf("grid came back with %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].BandwidthBps != got[i].BandwidthBps ||
			want[i].NodeMTBFSeconds != got[i].NodeMTBFSeconds ||
			want[i].Channels != got[i].Channels ||
			want[i].Strategy.Name() != got[i].Strategy.Name() ||
			want[i].Failure.WeibullShape != got[i].Failure.WeibullShape {
			t.Fatalf("point %d drifted: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func mustFailure(t *testing.T, name string) failure.Model {
	t.Helper()
	m, err := resolveFailureModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDecodeStrict pins that unknown fields and trailing garbage are
// rejected, not silently dropped.
func TestDecodeStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unknown top-level field", `{"config":{"platform":{"name":"cielo"}},"runs":3,"bogus":1}`},
		{"unknown nested field", `{"config":{"platform":{"name":"cielo"},"warp_factor":9},"runs":3}`},
		{"trailing garbage", `{"config":{"platform":{"name":"cielo"}},"runs":3}{"again":true}`},
		{"malformed", `{"config":`},
	}
	for _, tc := range cases {
		if _, err := DecodeCampaignSpec(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestValidateCollectsAllErrors pins that Resolve surfaces every field
// error at once rather than stopping at the first.
func TestValidateCollectsAllErrors(t *testing.T) {
	spec := CampaignSpec{
		Config: Config{
			Platform:     Platform{Name: "atlantis"},
			Strategy:     "No-Such-Strategy",
			Scheduler:    "quantum",
			FailureModel: "lognormal",
		},
		Runs: -1,
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("invalid spec validated")
	}
	msg := err.Error()
	for _, want := range []string{"atlantis", "No-Such-Strategy", "quantum", "lognormal", "runs"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error is missing the %q failure:\n%s", want, msg)
		}
	}
}

// TestMCResultInfRoundTrip pins the +Inf half-width (below two CI
// observations) across the JSON boundary, which float64 JSON cannot
// carry directly.
func TestMCResultInfRoundTrip(t *testing.T) {
	in := engine.MCResult{Strategy: "Least-Waste", RunsUsed: 1, CIHalfWidth: math.Inf(1), Confidence: 0.95}
	wire := FromMCResult(in)
	blob, err := EncodeJSON(wire)
	if err != nil {
		t.Fatalf("+Inf leaked into the JSON encoder: %v", err)
	}
	var back MCResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	out := back.Engine()
	if !math.IsInf(out.CIHalfWidth, 1) {
		t.Fatalf("CIHalfWidth came back as %v, want +Inf", out.CIHalfWidth)
	}
}

// TestStreamFrameBytesPinned pins the encoded bytes of one finite and
// one +Inf result frame. The literals are the wire layout clients already
// parse; MCResult's JSON form is shared with the journal and the cache,
// and a change there must not move a byte of the stream.
func TestStreamFrameBytesPinned(t *testing.T) {
	finite := engine.MCResult{
		Strategy: "Least-Waste", RunsUsed: 4, CIHalfWidth: 0.0625, Confidence: 0.95,
		MeanUtilization: 0.875, MeanFailures: 3.5, Cached: true,
		Summary: stats.Summary{N: 4, Mean: 0.25, Min: 0.125, Max: 0.5,
			P10: 0.125, P25: 0.1875, P50: 0.25, P75: 0.3125, P90: 0.5, StdDev: 0.1},
		// Per-run materialisations never cross the wire.
		Results: []engine.Result{{WasteRatio: 0.1}},
	}
	inf := engine.MCResult{
		Strategy: "Ordered-Daly", RunsUsed: 1, CIHalfWidth: math.Inf(1), Confidence: 0.95,
		MeanUtilization: 0.5, MeanFailures: 1,
		Summary: stats.Summary{N: 1, Mean: 0.3, Min: 0.3, Max: 0.3,
			P10: 0.3, P25: 0.3, P50: 0.3, P75: 0.3, P90: 0.3},
	}
	for _, tc := range []struct {
		mc   engine.MCResult
		want string
	}{
		{finite, `{"point":{"index":3,"bandwidth_bps":40000000000,"node_mtbf_seconds":31500000,"failure_model":"exponential","channels":1,"strategy":"Least-Waste","status":"done","attempts":1,"mc":{"strategy":"Least-Waste","summary":{"N":4,"Mean":0.25,"Min":0.125,"Max":0.5,"P10":0.125,"P25":0.1875,"P50":0.25,"P75":0.3125,"P90":0.5,"StdDev":0.1},"mean_utilization":0.875,"mean_failures":3.5,"runs_used":4,"ci_half_width":0.0625,"confidence":0.95,"cached":true}}}` + "\n"},
		{inf, `{"point":{"index":3,"bandwidth_bps":40000000000,"node_mtbf_seconds":31500000,"failure_model":"exponential","channels":1,"strategy":"Ordered-Daly","status":"done","attempts":1,"mc":{"strategy":"Ordered-Daly","summary":{"N":1,"Mean":0.3,"Min":0.3,"Max":0.3,"P10":0.3,"P25":0.3,"P50":0.3,"P75":0.3,"P90":0.3,"StdDev":0},"mean_utilization":0.5,"mean_failures":1,"runs_used":1,"ci_half_width":0,"ci_half_width_inf":true,"confidence":0.95}}}` + "\n"},
	} {
		m := FromMCResult(tc.mc)
		got, err := EncodeJSON(StreamFrame{Point: &PointResult{
			Index: 3, BandwidthBps: 4e10, NodeMTBFSeconds: 3.15e7, FailureModel: "exponential",
			Channels: 1, Strategy: tc.mc.Strategy, Status: "done", Attempts: 1, MC: &m,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s frame bytes moved:\n got %s\nwant %s", tc.mc.Strategy, got, tc.want)
		}
		var back StreamFrame
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if out := back.Point.MC.Engine(); out.CIHalfWidth != tc.mc.CIHalfWidth || out.Summary != tc.mc.Summary || out.Results != nil {
			t.Errorf("%s frame did not decode back: %+v", tc.mc.Strategy, out)
		}
	}
}

// TestCampaignInfoBytesPinned pins the listing payload byte for byte:
// Progress is the campaign layer's own type, and its tags and field order
// are the wire layout clients already parse.
func TestCampaignInfoBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		info CampaignInfo
		want string
	}{
		{CampaignInfo{
			ID: "c-000000000007", Name: "fig1", State: "running",
			SubmittedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), Runs: 8, Points: 6, Results: 3,
			Progress: Progress{PointsDone: 3, PointsFailed: 1, PointsSkipped: 2, PointsRestored: 1, PointsTotal: 6,
				ReplicatesFolded: 29, ReplicatesTotal: 48, CacheHits: 1},
			Error: "boom",
		}, `{"id":"c-000000000007","name":"fig1","state":"running","submitted_at":"2026-01-02T03:04:05Z","runs":8,"points":6,"results":3,"progress":{"points_done":3,"points_failed":1,"points_skipped":2,"points_restored":1,"points_total":6,"replicates_folded":29,"replicates_total":48,"cache_hits":1},"error":"boom"}` + "\n"},
		{CampaignInfo{State: "queued", Progress: Progress{PointsTotal: 2, ReplicatesTotal: 8}},
			`{"id":"","state":"queued","submitted_at":"0001-01-01T00:00:00Z","runs":0,"points":0,"results":0,"progress":{"points_done":0,"points_total":2,"replicates_folded":0,"replicates_total":8}}` + "\n"},
	} {
		got, err := EncodeJSON(tc.info)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("campaign info bytes moved:\n got %s\nwant %s", got, tc.want)
		}
	}
}

// TestListStrategiesCoversRegistry pins that the discovery endpoint
// payload names every registered strategy and scheduler.
func TestListStrategiesCoversRegistry(t *testing.T) {
	resp := ListStrategies()
	if got, want := len(resp.Strategies), len(engine.AllStrategies()); got != want {
		t.Fatalf("listed %d strategies, registry has %d", got, want)
	}
	for _, si := range resp.Strategies {
		if _, ok := engine.StrategyByName(si.Name); !ok {
			t.Errorf("listed strategy %q is not resolvable", si.Name)
		}
	}
	if got, want := len(resp.Schedulers), len(engine.SchedulerNames()); got != want {
		t.Fatalf("listed %d schedulers, engine has %d", got, want)
	}
}
