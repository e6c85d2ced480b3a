package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// TestCampaignResumeAtSequentialStop: a crash between the stopping
// replicate's record and its point_done leaves a journal whose prefix
// already satisfies the stopping rule. The resume must finish the point
// right there, without simulating, bit-identical to the uninterrupted
// campaign — not run one replicate past the stop.
func TestCampaignResumeAtSequentialStop(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 2)
	const maxRuns = 200
	probe := golden(t, base, engine.SweepGrid{}, 16)
	opts := Options{Workers: 2, TargetCI: engine.TargetCI{
		HalfWidth: probe[0].MC.CIHalfWidth * 1.2, MinRuns: 8, MaxRuns: maxRuns,
	}}
	want, err := runAll(New(opts), base, engine.SweepGrid{}, maxRuns)
	if err != nil {
		t.Fatal(err)
	}
	stop := want[0].MC.RunsUsed
	if stop >= maxRuns || stop < 8 {
		t.Fatalf("stopping did not engage (RunsUsed %d)", stop)
	}

	opts.JournalPath = filepath.Join(t.TempDir(), "campaign.journal")
	if _, err := runAll(New(opts), base, engine.SweepGrid{}, maxRuns); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	cut := 0
	for i, l := range lines {
		if strings.Contains(l, `"t":"replicate"`) {
			cut = i + 1
		}
	}
	if err := os.WriteFile(opts.JournalPath, []byte(strings.Join(lines[:cut], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Points[0]; p == nil || p.Done != nil || len(p.Prefix) != stop {
		t.Fatalf("cut journal replays %+v, want an unfinished point with %d replicates", p, stop)
	}

	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("resume ran past the sequential stop", func(any) bool { return true }))
	defer restore()
	opts.Resume = true
	got, err := runAll(New(opts), base, engine.SweepGrid{}, maxRuns)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Status != StatusDone {
		t.Fatalf("resumed point status %v: %v", got[0].Status, got[0].Err)
	}
	sameMC(t, "resume at the stopping replicate", got[0].MC, want[0].MC)
}

// TestJournalReplicateOutOfOrder: replicate records must arrive in run
// order per point; a gap or a repeat makes replay fail naming the point.
func TestJournalReplicateOutOfOrder(t *testing.T) {
	header := frame(`{"t":"header","d":{"version":3,"fingerprint":"x","points":2,"runs":4,"seed":1}}`)
	rec := func(point, run string) string {
		return frame(`{"t":"replicate","d":{"point":` + point + `,"run":` + run + `,"waste_ratio":0.5,"utilization":0.5,"failures":0}}`)
	}
	for _, tc := range []struct{ name, body string }{
		{"gap", rec("0", "0") + rec("1", "0") + rec("1", "2")},
		{"repeat", rec("1", "0") + rec("1", "0")},
		{"late start", rec("1", "1")},
	} {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		if err := os.WriteFile(path, []byte(header+tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "point 1") {
			t.Fatalf("%s: replay returned %v, want an error naming point 1", tc.name, err)
		}
	}
}

// TestCampaignSyncCadence pins the fsync cost of journaling: a one-point,
// 256-replicate campaign at default options syncs at most 6 times —
// header, two full batches of replicate records, point_done, seal and
// close — so per-replicate records cost no extra fsyncs.
func TestCampaignSyncCadence(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 5)
	var syncs atomic.Int64
	restore := faultinject.Set(faultinject.SiteJournalSync, func(context.Context, any) error {
		syncs.Add(1)
		return nil
	})
	defer restore()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	if _, err := runAll(New(Options{JournalPath: path}), base, engine.SweepGrid{}, 256); err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n > 6 {
		t.Fatalf("journaled campaign synced %d times, want at most 6", n)
	}
}
