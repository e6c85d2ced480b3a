package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/burstbuffer"
	"repro/internal/platform"
	"repro/internal/workload"
)

// ResultCache is a content-addressed memo for Monte-Carlo sweep points:
// Get returns the result previously stored under the key (and whether one
// was), Put stores one. Keys come from ExperimentKey, so equal keys mean
// bit-identical experiments under the pinned CRN schedule. A Session
// consults its cache (WithResultCache) for every cacheable Sweep point,
// and the campaign runner consults its Options.Cache before running a
// point; both paths Put every point they compute.
//
// Implementations must be safe for concurrent use and must not let a
// later caller observe mutations made by an earlier one (clone slices on
// Put or Get). Package resultcache provides the standard implementation
// with an in-memory tier and an optional disk tier.
type ResultCache interface {
	Get(key string) (MCResult, bool)
	Put(key string, mc MCResult)
}

// experimentSpec is the canonical plain-data image of one Monte-Carlo
// experiment: the resolved configuration (defaults applied, the scheduler
// knob resolved past "auto", the token-channel count normalised to 1 for
// shared-device disciplines that ignore it) plus the replication spec.
// Equal specs produce bit-identical MCResults, because every replicate is
// a pure function of (Seed, run index) under the CRN schedule and the
// fold is deterministic in run order.
type experimentSpec struct {
	Platform     platform.Platform
	Classes      []workload.Class
	Strategy     string
	Seed         uint64
	Scheduler    string // resolved kind, never "auto"
	Gen          workload.GenConfig
	HorizonDays  float64
	WarmupDays   float64
	CooldownDays float64
	// Interference identifies the shared-device bandwidth model by its
	// dynamic type and parameters. User models must therefore encode
	// everything behaviour-relevant in their struct fields.
	Interference string
	// Channels is normalised to 1 when the discipline ignores the token
	// count — the provably-duplicate k-axis cells of a channel sweep.
	Channels           int
	FailureModel       int
	WeibullShape       float64
	BurstBuffer        *burstbuffer.Config
	DisableFailures    bool
	DisableCheckpoints bool
	BaselineIO         bool
	PairedBaseline     bool

	// Runs is the effective replicate budget (MaxRuns under sequential
	// stopping, else the requested count).
	Runs int
	// TargetCI is the resolved stopping rule; MaxRuns is folded into Runs
	// and zeroed here, and a disabled rule keeps only its Confidence
	// (which still selects the reported CIHalfWidth level).
	TargetCI    TargetCI
	Antithetic  bool
	KeepResults bool
}

// newExperimentSpec resolves (cfg, runs, opts) to its canonical spec —
// the one place an experimentSpec is built. Observer hooks (Config.Trace,
// the MCOptions callbacks) are not part of an experiment's identity.
func newExperimentSpec(cfg Config, runs int, opts MCOptions) (experimentSpec, error) {
	c := cfg.withDefaults()
	kind, err := c.schedulerKind()
	if err != nil {
		return experimentSpec{}, err
	}
	seq := opts.TargetCI.withDefaults()
	total := runs
	if seq.HalfWidth > 0 {
		if seq.MaxRuns > 0 {
			total = seq.MaxRuns
		}
	} else {
		seq = TargetCI{Confidence: seq.Confidence}
	}
	seq.MaxRuns = 0
	spec := experimentSpec{
		Platform:           c.Platform,
		Classes:            c.Classes,
		Strategy:           c.Strategy.Name(),
		Seed:               c.Seed,
		Scheduler:          kind.String(),
		Gen:                c.Gen,
		HorizonDays:        c.HorizonDays,
		WarmupDays:         c.WarmupDays,
		CooldownDays:       c.CooldownDays,
		Interference:       fmt.Sprintf("%T%+v", c.Interference, c.Interference),
		Channels:           c.Channels,
		FailureModel:       int(c.FailureModel),
		WeibullShape:       c.WeibullShape,
		BurstBuffer:        c.BurstBuffer,
		DisableFailures:    c.DisableFailures,
		DisableCheckpoints: c.DisableCheckpoints,
		BaselineIO:         c.BaselineIO,
		PairedBaseline:     c.PairedBaseline,
		Runs:               total,
		TargetCI:           seq,
		Antithetic:         opts.Antithetic,
		KeepResults:        opts.KeepResults,
	}
	if !c.Strategy.Discipline.UsesToken() {
		spec.Channels = 1
	}
	return spec, nil
}

// ExperimentKey returns the content-address of the Monte-Carlo experiment
// (cfg, runs, opts) — the sha256 of its canonical spec, in hex — and
// whether the experiment is cacheable at all. Experiments with per-run
// observers (OnResult, Trace) or a transformed CI estimand are not
// cacheable: a memo hit would skip the simulation their hooks observe.
//
// Strategies are identified by Name(); user-registered strategies must
// use distinct names for distinct behaviours, as the registry already
// requires.
func ExperimentKey(cfg Config, runs int, opts MCOptions) (string, bool) {
	_, keys, err := ExperimentKeys([]Config{cfg}, runs, opts)
	if err != nil || keys[0] == "" {
		return "", false
	}
	return keys[0], true
}

// ExperimentKeys identifies a sequence of experiments (cfgs[i], runs,
// opts) — a campaign's grid points in order — in one pass. id is the
// sha256 of the ordered per-point spec digests, so two sequences share it
// exactly when every point is the same experiment at the same position;
// observer hooks such as Config.Trace do not enter it. keys[i] is point
// i's ExperimentKey, or "" when the point is not cacheable.
func ExperimentKeys(cfgs []Config, runs int, opts MCOptions) (id string, keys []string, err error) {
	uncacheable := runs <= 0 || opts.OnResult != nil || opts.ciValue != nil || opts.prefix != nil
	h := sha256.New()
	keys = make([]string, len(cfgs))
	for i, cfg := range cfgs {
		spec, err := newExperimentSpec(cfg, runs, opts)
		if err != nil {
			return "", nil, err
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return "", nil, err
		}
		sum := sha256.Sum256(b)
		h.Write(sum[:])
		if !uncacheable && cfg.Trace == nil {
			keys[i] = hex.EncodeToString(sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), keys, nil
}

// cloneMCResult deep-copies Results so a memoised result handed out twice
// cannot alias mutations between consumers.
func cloneMCResult(mc MCResult) MCResult {
	mc.Results = slices.Clone(mc.Results)
	return mc
}

// sweepMemo is the per-sweep view of the session's ResultCache the grid
// scheduler consults; repeated cells within one grid are deduplicated by
// the grid itself before the cache is asked. A nil memo disables
// memoisation (per-run observers must see every simulation).
type sweepMemo struct {
	runs  int
	opts  MCOptions
	cache ResultCache
}

// newSweepMemo builds the memo for one sweep, or nil when the session's
// options make memoisation unobservable-preserving impossible.
func newSweepMemo(s *Session, runs int) *sweepMemo {
	if s.opts.OnResult != nil {
		return nil
	}
	return &sweepMemo{runs: runs, opts: s.opts, cache: s.cache}
}

// key returns the point's content-address, or "" when uncacheable.
func (m *sweepMemo) key(cfg Config) string {
	if m == nil {
		return ""
	}
	k, ok := ExperimentKey(cfg, m.runs, m.opts)
	if !ok {
		return ""
	}
	return k
}

// lookup returns the cached result for the key, marked Cached.
func (m *sweepMemo) lookup(key string) (MCResult, bool) {
	if m == nil || key == "" || m.cache == nil {
		return MCResult{}, false
	}
	mc, ok := m.cache.Get(key)
	mc.Cached = ok
	return mc, ok
}

// store hands a freshly computed point to the cache, which clones it.
func (m *sweepMemo) store(key string, mc MCResult) {
	if m == nil || key == "" || m.cache == nil {
		return
	}
	m.cache.Put(key, mc)
}
