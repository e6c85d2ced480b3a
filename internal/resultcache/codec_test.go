package resultcache

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// parentLayout is a cache file in the layout the disk tier wrote before
// it shared engine.MCResult's JSON form: the result under "MC" with Go
// field names, +Inf carried by a sibling flag.
const parentLayout = `{"MC":{"Strategy":"Ordered-Daly","WasteRatios":[0.3,0.4,0.5],"Summary":{"N":3,"Mean":0.4,"Min":0.3,"Max":0.5,"P10":0,"P25":0,"P50":0,"P75":0,"P90":0,"StdDev":0.1},"MeanUtilization":0.9,"MeanFailures":0,"Results":null,"RunsUsed":3,"CIHalfWidth":0,"Confidence":0.95,"Cached":false},"CIHalfWidthPosInf":true}`

// TestDiskTierParentLayoutIsMiss: a file in the old layout decodes
// without error into a zero result; it must read as a counted miss,
// never as a zero-valued hit.
func TestDiskTierParentLayoutIsMiss(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(parentLayout), 0o644); err != nil {
		t.Fatal(err)
	}
	c, _ := New(Options{Dir: dir})
	if mc, ok := c.Get(key); ok {
		t.Fatalf("old-layout file served as a hit: %+v", mc)
	}
	if st := c.Stats(); st.DiskErrors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss and 1 disk error", st)
	}
}

// TestDiskTierKeepsResults: the disk tier stores materialised per-run
// results, not only the aggregates the wire carries.
func TestDiskTierKeepsResults(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(Options{Dir: dir})
	want := sample()
	want.Results = []engine.Result{{Strategy: "Ordered-Daly", WasteRatio: 0.3, JobsGenerated: 7, Events: 99}}
	c1.Put(key, want)
	c2, _ := New(Options{Dir: dir})
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip:\n got %+v\nwant %+v", got, want)
	}
}

// realEntry is the bytes the disk tier writes for mc.
func realEntry(tb testing.TB, mc engine.MCResult) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	c.Put(key, mc)
	b, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzCacheEntry feeds arbitrary file content under a valid key to Get:
// it never panics, and it either misses or returns a result that
// survives an encode/decode round trip unchanged.
func FuzzCacheEntry(f *testing.F) {
	inf := sample()
	inf.CIHalfWidth = math.Inf(1)
	withResults := sample()
	withResults.Results = []engine.Result{{Strategy: "Ordered-Daly", WasteRatio: 0.4, Utilization: 0.9}}
	for _, mc := range []engine.MCResult{sample(), inf, withResults} {
		f.Add(realEntry(f, mc))
	}
	f.Add([]byte(parentLayout))
	f.Add([]byte(`{"runs_used":1,"waste_ratios":[]}`))
	// One directory per fuzz process; each input overwrites the entry
	// and reads it through a fresh cache.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, content []byte) {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), content, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mc, ok := c.Get(key)
		if !ok {
			return
		}
		b, err := json.Marshal(mc)
		if err != nil {
			t.Fatalf("hit does not re-encode: %v", err)
		}
		var back engine.MCResult
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-encoded hit does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, mc) {
			t.Fatalf("round trip changed the hit:\n got %+v\nwant %+v", back, mc)
		}
	})
}
