package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file is the load generator's input side: it turns the seed into
// the grids and campaign specs the program receives. It draws from its
// own PCG stream, so a change to the program's random number generator
// does not change the workload.

// sweepSpec is one in-process sweep: the base configuration, the grid,
// and the stopping rule applied to every point.
type sweepSpec struct {
	base engine.Config
	grid engine.SweepGrid
	rule stopRule
}

func (sp sweepSpec) sessionOptions(workers int) []engine.SessionOption {
	return []engine.SessionOption{
		engine.WithWorkers(workers),
		engine.WithTargetCI(sp.rule.HalfWidth, 0.95, sp.rule.MinRuns, sp.rule.MaxRuns),
	}
}

func newGen(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// jitter scales x by a factor drawn uniformly from [0.95, 1.05): the
// seed moves every axis value without changing the grid's shape or its
// cost much.
func jitter(r *rand.Rand, x float64) float64 { return x * (0.95 + 0.1*r.Float64()) }

// paperSweep is the Figures 1-2 grid: the seven legend strategies at
// three bandwidths and two node MTBFs on Cielo at 60 days, with
// sequential stopping at a 0.005 CI half-width between 6 and 8
// replicates. The target is tight, so nearly every point runs to the cap
// and the work per pass barely depends on the seed.
func paperSweep(seed uint64) sweepSpec {
	r := newGen(seed, 1)
	base := engine.Config{
		Platform:    platform.Cielo(40, 2),
		Classes:     workload.APEXClasses(),
		Seed:        r.Uint64(),
		HorizonDays: 60,
	}
	grid := engine.SweepGrid{Strategies: engine.LegendStrategies()}
	for _, gbps := range []float64{40, 80, 160} {
		grid.BandwidthsBps = append(grid.BandwidthsBps, units.GBps(jitter(r, gbps)))
	}
	for _, years := range []float64{2, 10} {
		grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(jitter(r, years)))
	}
	return sweepSpec{base: base, grid: grid, rule: stopRule{HalfWidth: 0.005, MinRuns: 6, MaxRuns: 8}}
}

// longHorizon is Cielo beyond the two-year calendar-queue crossover:
// Least-Waste and Ordered-NB-Daly at 40 GB/s, node MTBF 2 years and a
// short, cancel-heavy 0.5 years, 3 to 4 replicates per point under a
// 0.002 CI target that nearly always runs to the cap.
func longHorizon(seed uint64) sweepSpec {
	r := newGen(seed, 2)
	base := engine.Config{
		Platform:    platform.Cielo(40, 2),
		Classes:     workload.APEXClasses(),
		Seed:        r.Uint64(),
		HorizonDays: engine.CalendarAutoHorizonDays + 30*r.Float64(),
	}
	grid := engine.SweepGrid{Strategies: []engine.Strategy{engine.LeastWaste(), engine.OrderedNBDaly()}}
	grid.BandwidthsBps = []float64{units.GBps(jitter(r, 40))}
	for _, years := range []float64{2, 0.5} {
		grid.NodeMTBFSeconds = append(grid.NodeMTBFSeconds, units.Years(jitter(r, years)))
	}
	return sweepSpec{base: base, grid: grid, rule: stopRule{HalfWidth: 0.002, MinRuns: 3, MaxRuns: 4}}
}

// daemonRuns is the replicate count of every daemon-stream campaign.
const daemonRuns = 4

// repeatShare is the probability that a daemon-stream submission
// repeats an earlier spec. It is kept clear of one half: a cache-hit
// campaign takes a fraction of a fresh one's time, and with half the
// campaigns of each kind the median latency would sit on the boundary
// between the two and flip from run to run.
const repeatShare = 0.4

// specStream is the daemon-stream submission sequence. Entry k is a
// pure function of the seed and k: with probability repeatShare it
// repeats an earlier fresh spec, else it is a fresh 7-day, 3-strategy,
// 4-run campaign on Cielo with seed-drawn bandwidth and node MTBF. The
// fresh specs come from their own stream, so they do not depend on the
// repeat draws.
type specStream struct {
	mu       sync.Mutex
	pick     *rand.Rand // repeat decisions and choices
	contents *rand.Rand // fresh spec contents
	fresh    []api.CampaignSpec
	seq      []int // seq[k] is the index into fresh of submission k
	cursor   int
}

func newSpecStream(seed uint64) *specStream {
	return &specStream{pick: newGen(seed, 3), contents: newGen(seed, 4)}
}

// at returns submission k (generating the sequence up to k) and the
// index of its fresh spec.
func (s *specStream) at(k int) (api.CampaignSpec, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.seq) <= k {
		if len(s.fresh) > 0 && s.pick.Float64() < repeatShare {
			s.seq = append(s.seq, s.pick.IntN(len(s.fresh)))
			continue
		}
		s.fresh = append(s.fresh, s.freshSpec(len(s.fresh)))
		s.seq = append(s.seq, len(s.fresh)-1)
	}
	f := s.seq[k]
	return s.fresh[f], f
}

// next hands out the next submission of the shared sequence.
func (s *specStream) next() (k int) {
	s.mu.Lock()
	k = s.cursor
	s.cursor++
	s.mu.Unlock()
	return k
}

func (s *specStream) freshSpec(i int) api.CampaignSpec {
	r := s.contents
	legend := engine.LegendStrategies()
	perm := r.Perm(len(legend))
	var strategies []string
	for _, p := range perm[:3] {
		strategies = append(strategies, legend[p].Name())
	}
	return api.CampaignSpec{
		Name: fmt.Sprintf("perfbench-%d", i),
		Config: api.Config{
			Platform: api.Platform{
				Name:          "cielo",
				BandwidthGBps: 20 + 140*r.Float64(),
				NodeMTBFYears: 1 + 19*r.Float64(),
			},
			Seed:        r.Uint64(),
			HorizonDays: 7,
		},
		Grid: api.SweepGrid{Strategies: strategies},
		Runs: daemonRuns,
	}
}
