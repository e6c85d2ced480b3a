package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/iomodel"
	"repro/internal/units"
)

// runAll drains a campaign and returns its points and error.
func runAll(c *Campaign, base engine.Config, grid engine.SweepGrid, runs int) ([]PointResult, error) {
	seq, errf := c.RunSweep(context.Background(), base, grid, runs)
	var out []PointResult
	for pr := range seq {
		out = append(out, pr)
	}
	return out, errf()
}

// TestCampaignResumeRefusesOtherGamma: the journal fingerprint covers the
// interference model's parameters, not only its type — a journal written
// under Degraded{Gamma: 0.5} must not replay into a Gamma 0.9 campaign.
func TestCampaignResumeRefusesOtherGamma(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Oblivious-Daly"), 41)
	base.Interference = iomodel.Degraded{Gamma: 0.5}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	if _, err := runAll(New(Options{JournalPath: path, Workers: 2}), base, engine.SweepGrid{}, 2); err != nil {
		t.Fatal(err)
	}
	other := base
	other.Interference = iomodel.Degraded{Gamma: 0.9}
	_, err := runAll(New(Options{JournalPath: path, Resume: true, Workers: 2}), other, engine.SweepGrid{}, 2)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("Gamma 0.9 campaign resumed a Gamma 0.5 journal (err %v)", err)
	}
}

// TestCampaignTargetCIDefaultsResume: a stopping rule spelled with its
// defaults is the same experiment as the bare rule, so each resumes the
// other's journal, replaying every point without simulating.
func TestCampaignTargetCIDefaultsResume(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 43)
	grid := engine.SweepGrid{BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)}}
	const runs = 8
	bare := engine.TargetCI{HalfWidth: 0.01}
	spelled := engine.TargetCI{HalfWidth: 0.01, Confidence: 0.95, MinRuns: 8}
	for _, tc := range []struct {
		name        string
		write, read engine.TargetCI
	}{{"bare->spelled", bare, spelled}, {"spelled->bare", spelled, bare}} {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		want, err := runAll(New(Options{JournalPath: path, Workers: 2, TargetCI: tc.write}), base, grid, runs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := runAll(New(Options{JournalPath: path, Resume: true, Workers: 2, TargetCI: tc.read}), base, grid, runs)
		if err != nil {
			t.Fatalf("%s: resume refused: %v", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: resumed %d points, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if !got[i].Restored {
				t.Errorf("%s: point %d simulated instead of replayed", tc.name, i)
			}
			sameMC(t, tc.name, got[i].MC, want[i].MC)
		}
	}
}

// TestCampaignInfHalfWidthResume: one replicate per point leaves the CI
// half-width +Inf; a campaign cancelled after its first point replays
// that point from the journal with +Inf intact and finishes
// bit-identically to an uninterrupted run.
func TestCampaignInfHalfWidthResume(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-Daly"), 47)
	grid := engine.SweepGrid{NodeMTBFSeconds: []float64{units.Years(1), units.Years(2), units.Years(4)}}
	const runs = 1
	want := golden(t, base, grid, runs)

	path := filepath.Join(t.TempDir(), "campaign.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seq, errf := New(Options{JournalPath: path, Workers: 2}).RunSweep(ctx, base, grid, runs)
	for range seq {
		cancel()
	}
	if err := errf(); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want context.Canceled", err)
	}

	got, err := runAll(New(Options{JournalPath: path, Resume: true, Workers: 2}), base, grid, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed %d points, want %d", len(got), len(want))
	}
	if !got[0].Restored {
		t.Fatal("first point was not replayed from the journal")
	}
	for i := range got {
		if !math.IsInf(got[i].MC.CIHalfWidth, 1) {
			t.Fatalf("point %d CIHalfWidth = %v, want +Inf", i, got[i].MC.CIHalfWidth)
		}
		sameMC(t, "resumed point", got[i].MC, want[i].MC)
	}
}

// frame CRC-frames a journal record body the way Journal.append does.
func frame(body string) string {
	return fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(body), crcTable), body)
}

// TestJournalV1Refused: journals written by the version 1 and version 2
// formats are refused with the version error, both on inspection and on
// resume.
func TestJournalV1Refused(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 81)
	for _, version := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		old := frame(fmt.Sprintf(`{"t":"header","d":{"version":%d,"fingerprint":"5d1c","points":1,"runs":4,"seed":81}}`, version)) +
			frame(`{"t":"point_done","d":{"point":0,"mc":{"strategy":"Ordered-NB-Daly","summary":{"n":4,"mean":0.1},"runs_used":4,"ci_half_width":"inf","confidence":0.95}}}`)
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("journal version %d, this build reads 3", version)
		if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ReadJournal on a v%d journal: %v, want %q", version, err, want)
		}
		if _, err := runAll(New(Options{JournalPath: path, Resume: true, Workers: 2}), base, engine.SweepGrid{}, 4); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("resume of a v%d journal: %v, want %q", version, err, want)
		}
	}
}

// FuzzJournalReplay feeds arbitrary bytes to ReadJournal: it never
// panics, and a frame with a bad CRC appended to any input is dropped as
// torn — the replayed state is the input's own.
func FuzzJournalReplay(f *testing.F) {
	base := tinyConfig(mustStrategy(f, "Least-Waste"), 53)
	// A one-point, two-replicate campaign journals every record type a
	// run writes (header, replicate, point_done, seal) while keeping the
	// seed small enough for the fuzzer to minimise quickly.
	real := filepath.Join(f.TempDir(), "campaign.journal")
	if _, err := runAll(New(Options{JournalPath: real, Workers: 2}), base, engine.SweepGrid{}, 2); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(frame(`{"t":"header","d":{"version":3,"fingerprint":"x","points":2,"runs":1,"seed":1}}`) +
		frame(`{"t":"replicate","d":{"point":0,"run":0,"waste_ratio":0.25,"utilization":0.5,"failures":1}}`) +
		frame(`{"t":"point_done","d":{"point":0,"mc":{"runs_used":1,"ci_half_width":0,"ci_half_width_inf":true}}}`) +
		frame(`{"t":"replicate","d":{"point":1,"run":0,"waste_ratio":0.125,"utilization":0.75,"failures":0}}`)))

	body := `{"t":"point_done","d":{"point":0,"mc":{"strategy":"torn","runs_used":1}}}`
	bad := fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(body), crcTable)^1, body)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never append into the fuzzer's buffer: clip before growing.
		data = data[:len(data):len(data)]
		if len(data) == 0 || data[len(data)-1] != '\n' {
			data = append(data, '\n')
		}
		read := func(name string, b []byte) (*ReplayState, error) {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return ReadJournal(p)
		}
		st, err := read("in.journal", data)
		stBad, errBad := read("bad.journal", append(data[:len(data):len(data)], bad...))
		if (err == nil) != (errBad == nil) {
			t.Fatalf("bad-CRC frame changed the replay outcome: %v vs %v", err, errBad)
		}
		if err != nil {
			return
		}
		if want := max(st.TornRecords, 1); stBad.TornRecords != want {
			t.Fatalf("bad-CRC frame counted %d torn records, want %d", stBad.TornRecords, want)
		}
		stBad.TornRecords = st.TornRecords
		if !reflect.DeepEqual(st, stBad) {
			t.Fatalf("bad-CRC frame was applied:\n got %+v\nwant %+v", stBad, st)
		}
	})
}
