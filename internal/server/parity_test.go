package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// parityConfig is a small explicit-platform experiment, cheap enough to
// replicate a few hundred times per path.
func parityConfig() engine.Config {
	return engine.Config{
		Platform: platform.Platform{
			Name:            "tiny",
			Nodes:           256,
			MemoryBytes:     4 * units.TB,
			BandwidthBps:    units.GBps(0.5),
			NodeMTBFSeconds: units.Years(1),
		},
		Classes: []workload.Class{
			{
				Name: "big", Share: 0.7, WorkHours: 30, MachineFraction: 0.25,
				InputPctMem: 10, OutputPctMem: 100, CkptPctMem: 150,
			},
			{
				Name: "small", Share: 0.3, WorkHours: 10, MachineFraction: 0.0625,
				InputPctMem: 5, OutputPctMem: 200, CkptPctMem: 100,
			},
		},
		Strategy:     engine.OrderedNBDaly(),
		Seed:         7,
		HorizonDays:  6,
		WarmupDays:   0.5,
		CooldownDays: 0.5,
		Gen:          workload.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
	}
}

// TestSummaryParityAcrossPaths is the one parity table for the candlestick
// summary: the same experiment at run counts either side of 64 yields the
// same MCResult (provenance aside) through a plain Session, an unjournaled,
// a journaled and a resumed campaign, and a daemon submission of the
// equivalent wire spec.
func TestSummaryParityAcrossPaths(t *testing.T) {
	cfg := parityConfig()
	for _, runs := range []int{64, 65, 200} {
		t.Run(fmt.Sprintf("runs=%d", runs), func(t *testing.T) {
			ctx := context.Background()
			want, err := engine.NewSession(engine.WithWorkers(2)).MonteCarlo(ctx, cfg, runs)
			if err != nil {
				t.Fatal(err)
			}
			same := func(path string, got engine.MCResult) {
				t.Helper()
				got.Cached = false
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from Session.MonteCarlo:\n got %+v\nwant %+v", path, got, want)
				}
			}

			// The reference is exact: its Summary is Summarize over the
			// per-run waste ratios, whatever the run count.
			kept, err := engine.NewSession(engine.WithWorkers(2), engine.WithKeepResults(true)).MonteCarlo(ctx, cfg, runs)
			if err != nil {
				t.Fatal(err)
			}
			ratios := make([]float64, len(kept.Results))
			for i, r := range kept.Results {
				ratios[i] = r.WasteRatio
			}
			if exact := stats.Summarize(ratios); want.Summary != exact {
				t.Fatalf("Session.MonteCarlo summary %+v is not the exact %+v", want.Summary, exact)
			}
			kept.Results = nil
			same("Session.MonteCarlo with KeepResults", kept)

			campaignRun := func(opts campaign.Options) engine.MCResult {
				t.Helper()
				opts.Workers = 2
				pr, err := campaign.New(opts).Run(ctx, cfg, runs)
				if err != nil {
					t.Fatal(err)
				}
				if pr.Status != campaign.StatusDone {
					t.Fatalf("campaign point status %v: %v", pr.Status, pr.Err)
				}
				return pr.MC
			}
			same("unjournaled campaign", campaignRun(campaign.Options{}))
			path := filepath.Join(t.TempDir(), "campaign.journal")
			same("journaled campaign", campaignRun(campaign.Options{JournalPath: path}))

			// Cut the journal back to its first replicates and resume.
			prefix := min(100, runs-1)
			cutJournal(t, path, prefix)
			same(fmt.Sprintf("campaign resumed from %d replicates", prefix),
				campaignRun(campaign.Options{JournalPath: path, Resume: true}))

			same("daemon submission", submitAndCollect(t, cfg, runs))
		})
	}
}

// cutJournal truncates a journal right after its keep-th replicate
// record, the state a crash leaves mid-point.
func cutJournal(t *testing.T, path string, keep int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	n := 0
	for i, l := range lines {
		if strings.Contains(l, `"t":"replicate"`) {
			if n++; n == keep {
				lines = lines[:i+1]
				break
			}
		}
	}
	if n != keep {
		t.Fatalf("journal holds %d replicate records, want at least %d", n, keep)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// submitAndCollect submits cfg as a one-point wire spec to an in-memory
// server and returns the streamed point's result as a client decodes it.
func submitAndCollect(t *testing.T, cfg engine.Config, runs int) engine.MCResult {
	t.Helper()
	wire, err := api.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	id, err := s.Submit(api.CampaignSpec{Config: wire, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	var points []api.PointResult
	var end *api.StreamEnd
	err = s.Stream(context.Background(), id, 0, func(f api.StreamFrame) bool {
		b, err := api.EncodeJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		var back api.StreamFrame
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Point != nil {
			points = append(points, *back.Point)
		}
		end = back.End
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if end == nil || end.State != StateDone || len(points) != 1 || points[0].MC == nil {
		t.Fatalf("daemon campaign ended %+v with %d points", end, len(points))
	}
	return points[0].MC.Engine()
}
