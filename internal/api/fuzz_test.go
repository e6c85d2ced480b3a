package api

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// maxFuzzPoints bounds the grids the fuzz target fingerprints: the grid
// is a product of its axes, so a short input can name millions of points.
const maxFuzzPoints = 256

// specFingerprint is the campaign identity the journal pins: the
// ExperimentKeys id over the resolved grid's ordered point experiments.
func specFingerprint(res Resolved) (string, error) {
	pts := res.Grid.Points(res.Base)
	cfgs := make([]engine.Config, len(pts))
	for i, pt := range pts {
		cfgs[i] = pt.Apply(res.Base)
	}
	id, _, err := engine.ExperimentKeys(cfgs, res.Runs, engine.MCOptions{
		TargetCI: res.TargetCI, Antithetic: res.Antithetic,
	})
	return id, err
}

// gridSize is the number of points the grid enumerates (an empty axis
// contributes the base value once).
func gridSize(g SweepGrid) int {
	n := 1
	for _, k := range []int{len(g.BandwidthsBps), len(g.NodeMTBFSeconds), len(g.FailureSpecs), len(g.Channels), len(g.Strategies)} {
		n *= max(k, 1)
		if n > maxFuzzPoints {
			return n
		}
	}
	return n
}

// FuzzCampaignSpec feeds arbitrary bytes through the daemon's submission
// decoder: DecodeCampaignSpec and Resolve never panic, and a spec that
// resolves re-encodes through FromConfig/FromGrid to a spec that decodes,
// resolves and fingerprints to the same campaign.
func FuzzCampaignSpec(f *testing.F) {
	seeds := []string{
		`{"config":{"platform":{"name":"cielo"}},"runs":3,"bogus":1}`,
		`{"config":{"platform":{"name":"cielo"},"warp_factor":9},"runs":3}`,
		`{"config":{"platform":{"name":"cielo"}},"runs":3}{"again":true}`,
		`{"config":`,
		`{"config":{"platform":{"name":"atlantis"},"strategy":"No-Such-Strategy","scheduler":"quantum","failure_model":"lognormal","seed":0},"grid":{},"runs":-1,"options":{}}`,
		`{"name":"identity","config":{"platform":{"name":"cielo","bandwidth_gbps":40,"node_mtbf_years":2},"seed":1,"horizon_days":3},"grid":{"strategies":["Least-Waste","Ordered-Daly"]},"runs":3,"options":{}}`,
		`{"config":{"platform":{"name":"prospective","bandwidth_gbps":2000,"node_mtbf_years":15},"strategy":"Ordered-NB-Daly","seed":9,"interference":{"model":"degraded","gamma":0.5},"gen":{"law":"normal20"}},"runs":4,"options":{"target_ci":{"half_width":0.01,"min_runs":4,"max_runs":16},"antithetic":true}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// The round-trip specs of the api tests: a Cielo config with two
	// token channels, and a five-axis grid.
	cielo, err := Platform{Name: "cielo", BandwidthGBps: 40, NodeMTBFYears: 2}.Resolve()
	if err != nil {
		f.Fatal(err)
	}
	for _, strat := range engine.AllStrategies()[:2] {
		wire, err := FromConfig(engine.Config{
			Platform: cielo, Classes: workload.APEXClasses(), Strategy: strat,
			Seed: 7, Scheduler: "calendar", HorizonDays: 3, Channels: 2,
		})
		if err != nil {
			f.Fatal(err)
		}
		grid, err := FromGrid(engine.SweepGrid{
			BandwidthsBps:   []float64{units.GBps(40), units.GBps(80)},
			NodeMTBFSeconds: []float64{units.Years(2)},
			Channels:        []int{1, 2},
			Strategies:      engine.AllStrategies()[:3],
		})
		if err != nil {
			f.Fatal(err)
		}
		for _, spec := range []CampaignSpec{{Config: wire, Runs: 5}, {Config: wire, Grid: grid, Runs: 2}} {
			b, err := json.Marshal(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeCampaignSpec(bytes.NewReader(data))
		if err != nil || gridSize(spec.Grid) > maxFuzzPoints {
			return
		}
		res, err := spec.Resolve()
		if err != nil {
			return
		}
		want, err := specFingerprint(res)
		if err != nil {
			t.Fatalf("resolved spec does not fingerprint: %v", err)
		}

		wire, err := FromConfig(res.Base)
		if err != nil {
			t.Fatalf("resolved config does not re-encode: %v", err)
		}
		grid, err := FromGrid(res.Grid)
		if err != nil {
			t.Fatalf("resolved grid does not re-encode: %v", err)
		}
		b, err := json.Marshal(CampaignSpec{Config: wire, Grid: grid, Runs: res.Runs, Options: spec.Options})
		if err != nil {
			t.Fatalf("re-encoded spec does not marshal: %v", err)
		}
		again, err := DecodeCampaignSpec(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, b)
		}
		res2, err := again.Resolve()
		if err != nil {
			t.Fatalf("re-encoded spec does not resolve: %v\n%s", err, b)
		}
		got, err := specFingerprint(res2)
		if err != nil {
			t.Fatalf("re-resolved spec does not fingerprint: %v", err)
		}
		if got != want {
			t.Fatalf("fingerprint moved across the re-encoding:\n in  %s\n out %s", data, b)
		}
	})
}
