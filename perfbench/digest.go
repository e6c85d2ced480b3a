package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/engine"
)

// digester hashes Monte-Carlo results in grid order into a results
// digest. Floats enter by their bit patterns, so any change of any
// digit changes the digest. The Cached flag is provenance, not a
// result, and is left out: a cache hit must digest like the simulation
// it replaced.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	d.h.Write(b[:])
}

func (d *digester) i(x int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
	d.h.Write(b[:])
}

func (d *digester) s(x string) {
	d.i(len(x))
	d.h.Write([]byte(x))
}

// add hashes one grid point's identity and aggregates.
func (d *digester) add(index int, strategy string, bw, mtbf float64, mc engine.MCResult) {
	d.i(index)
	d.s(strategy)
	d.f(bw)
	d.f(mtbf)
	d.s(mc.Strategy)
	sm := mc.Summary
	d.i(sm.N)
	for _, x := range []float64{sm.Mean, sm.Min, sm.Max, sm.P10, sm.P25, sm.P50, sm.P75, sm.P90, sm.StdDev,
		mc.MeanUtilization, mc.MeanFailures, mc.CIHalfWidth, mc.Confidence} {
		d.f(x)
	}
	d.i(mc.RunsUsed)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// stopRule is the replicate budget of one experiment: fixed runs when
// HalfWidth is 0, else sequential stopping between MinRuns and MaxRuns.
type stopRule struct {
	HalfWidth        float64
	MinRuns, MaxRuns int
}

// checkMC applies the output checks that hold for any seed: the runs
// used lie within the stopping bounds, the interval meets its target
// unless the cap was hit, and every waste statistic is a ratio in [0,1].
func checkMC(mc engine.MCResult, rule stopRule) error {
	switch {
	case rule.HalfWidth == 0 && mc.RunsUsed != rule.MaxRuns:
		return fmt.Errorf("%s: runs used %d, want exactly %d", mc.Strategy, mc.RunsUsed, rule.MaxRuns)
	case mc.RunsUsed < rule.MinRuns || mc.RunsUsed > rule.MaxRuns:
		return fmt.Errorf("%s: runs used %d outside [%d,%d]", mc.Strategy, mc.RunsUsed, rule.MinRuns, rule.MaxRuns)
	case rule.HalfWidth > 0 && mc.RunsUsed < rule.MaxRuns && !(mc.CIHalfWidth <= rule.HalfWidth):
		return fmt.Errorf("%s: stopped at %d runs with CI half-width %v above target %v",
			mc.Strategy, mc.RunsUsed, mc.CIHalfWidth, rule.HalfWidth)
	case mc.Summary.N != mc.RunsUsed:
		return fmt.Errorf("%s: summary counts %d runs, runs used %d", mc.Strategy, mc.Summary.N, mc.RunsUsed)
	}
	sm := mc.Summary
	for _, x := range []float64{sm.Mean, sm.Min, sm.Max, sm.P10, sm.P25, sm.P50, sm.P75, sm.P90} {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("%s: waste statistic %v outside [0,1]", mc.Strategy, x)
		}
	}
	return nil
}
