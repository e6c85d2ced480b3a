package server

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// TestBootWithV1Journal: a data dir holding a campaign whose journal is
// in the version 1 format still boots. That campaign ends failed with
// the version error, and a new submission runs normally.
func TestBootWithV1Journal(t *testing.T) {
	dataDir := t.TempDir()
	const id = "c-000000000001"
	var spec api.CampaignSpec
	if err := json.Unmarshal(specJSON(t, "old", []string{"Least-Waste"}, 3, 2), &spec); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(storedSpec{ID: id, SubmittedAt: time.Unix(0, 0).UTC(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, id+".spec.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	body := `{"t":"header","d":{"version":1,"fingerprint":"5d1c","points":1,"runs":2,"seed":1}}`
	crc := crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli))
	if err := os.WriteFile(filepath.Join(dataDir, id+".journal"), fmt.Appendf(nil, "%08x %s\n", crc, body), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{DataDir: dataDir})
	_, end := readStream(t, ts, id, 0)
	if end.State != StateFailed || !strings.Contains(end.Error, "journal version 1, this build reads 3") {
		t.Fatalf("v1 campaign ended %+v, want failed with the version error", end)
	}

	fresh := submit(t, ts.URL, specJSON(t, "new", []string{"Least-Waste"}, 3, 2))
	points, end := readStream(t, ts, fresh, 0)
	if end.State != StateDone || len(points) != 1 {
		t.Fatalf("new submission ended %+v with %d points", end, len(points))
	}
}
