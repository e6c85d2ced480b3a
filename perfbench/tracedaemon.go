package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/resultcache"
	"repro/internal/server"
)

// timedCache decorates the service's result cache, timing every Get and
// Put and recording each as a span.
type timedCache struct {
	c  *resultcache.Cache
	tr *tracer

	mu         sync.Mutex
	gets, puts []float64 // microseconds
}

func (t *timedCache) Get(key string) (engine.MCResult, bool) {
	t0 := time.Now()
	mc, ok := t.c.Get(key)
	t1 := time.Now()
	t.tr.record("cache", "resultcache.Get", 0, t0, t1)
	t.mu.Lock()
	t.gets = append(t.gets, float64(t1.Sub(t0).Nanoseconds())/1e3)
	t.mu.Unlock()
	return mc, ok
}

func (t *timedCache) Put(key string, mc engine.MCResult) {
	t0 := time.Now()
	t.c.Put(key, mc)
	t1 := time.Now()
	t.tr.record("cache", "resultcache.Put", 0, t0, t1)
	t.mu.Lock()
	t.puts = append(t.puts, float64(t1.Sub(t0).Nanoseconds())/1e3)
	t.mu.Unlock()
}

// hosted is the service hosted in this process on a loopback listener,
// with the options coopsimd gives it.
type hosted struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	dataDir string
	dirs    []string
	cache   *timedCache // nil on the untraced pass
	setup   time.Duration
	served  chan struct{}
}

// hostServer starts server.New(...).Handler() on a loopback port with
// fresh data and cache directories. With a tracer the result cache is
// wrapped in a timing decorator.
func (e *env) hostServer(ctx context.Context, tr *tracer) (*hosted, error) {
	h := &hosted{served: make(chan struct{})}
	for _, prefix := range []string{"perfbench-data-", "perfbench-cache-"} {
		dir, err := os.MkdirTemp("", prefix)
		if err != nil {
			h.removeDirs()
			return nil, err
		}
		h.dirs = append(h.dirs, dir)
	}
	h.dataDir = h.dirs[0]
	t0 := time.Now()
	rc, err := resultcache.New(resultcache.Options{Dir: h.dirs[1]})
	if err != nil {
		h.removeDirs()
		return nil, err
	}
	opts := server.Options{DataDir: h.dataDir, MaxConcurrent: 2, MaxQueue: 8, Workers: e.workers, Cache: rc}
	if tr != nil {
		h.cache = &timedCache{c: rc, tr: tr}
		opts.Cache = h.cache
	}
	h.srv, err = server.New(opts)
	if err != nil {
		h.removeDirs()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Shutdown(ctx)
		h.removeDirs()
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln)
	}()
	if err := waitHealthy(ctx, h.base, t0); err != nil {
		h.close()
		return nil, err
	}
	h.setup = time.Since(t0)
	return h, nil
}

// close drains the server, stops the listener and waits for it.
func (h *hosted) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
	h.hs.Shutdown(ctx)
	<-h.served
	h.removeDirs()
}

func (h *hosted) removeDirs() {
	for _, d := range h.dirs {
		os.RemoveAll(d)
	}
	h.dirs = nil
}

// serviceLayers reads the server, campaign and result-cache layers off
// a traced pass: client-side submit, first-byte and frame timings, the
// server's own campaign listing, the journals it wrote and their replay.
func (e *env) serviceLayers(ctx context.Context, h *hosted, loads []streamLoad) (map[string]float64, error) {
	var submits, ttfbs, gaps []float64
	attempts, rejected := 0, 0
	for _, ld := range loads {
		attempts += ld.attempts
		rejected += ld.rejected
		for _, o := range ld.outcomes {
			submits = append(submits, ms(o.submitted.Sub(o.start)))
			ttfbs = append(ttfbs, ms(o.ttfb))
			gaps = append(gaps, msOf(o.gaps[1:])...)
		}
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	var list []api.CampaignInfo
	if err := getJSON(hc, h.base+"/v1/campaigns", &list); err != nil {
		return nil, err
	}
	hits, points := 0, 0
	for _, c := range list {
		hits += c.Progress.CacheHits
		points += c.Points
	}
	journals, err := filepath.Glob(filepath.Join(h.dataDir, "*.journal"))
	if err != nil {
		return nil, err
	}
	var jbytes int64
	var replays []float64
	for i, j := range journals {
		fi, err := os.Stat(j)
		if err != nil {
			return nil, err
		}
		jbytes += fi.Size()
		if i >= 200 {
			continue
		}
		t0 := time.Now()
		st, err := campaign.ReadJournal(j)
		replays = append(replays, ms(time.Since(t0)))
		e.tally.check(err == nil && st != nil, "journal %s does not replay: %v", filepath.Base(j), err)
	}
	if len(journals) == 0 {
		return nil, errors.New("the service wrote no journals")
	}
	h.cache.mu.Lock()
	gets, puts := median(h.cache.gets), median(h.cache.puts)
	h.cache.mu.Unlock()
	return map[string]float64{
		"server.submit_p50_ms":             median(submits),
		"server.stream_ttfb_ms":            median(ttfbs),
		"server.frame_gap_p50_ms":          median(gaps),
		"server.rejected_frac":             float64(rejected) / float64(attempts),
		"server.live_campaigns":            float64(len(list)),
		"campaign.journal_bytes_per_point": float64(jbytes) / float64(points),
		"campaign.replay_ms":               median(replays),
		"resultcache.hit_frac":             float64(hits) / float64(points),
		"resultcache.get_us":               gets,
		"resultcache.put_us":               puts,
	}, nil
}

// finishTrace writes the spans, checks that the self times under every
// root add up to no more than the root's duration, and prints the self
// time per span name.
func (e *env) finishTrace(tr *tracer, m map[string]float64) error {
	spans := tr.snapshot()
	self := selfTimes(spans)
	hasChildren := map[int]bool{}
	for _, s := range spans {
		hasChildren[s.Parent] = true
	}
	worst := 0.0
	for id, sum := range rootSelfSums(spans, self) {
		s := spans[id-1]
		dur := s.End - s.Start
		e.tally.check(sum <= dur, "root span %s of %s: self times sum to %v, above its %v", s.Name, s.Trace, sum, dur)
		if hasChildren[id] && dur > 0 {
			worst = max(worst, float64(sum)/float64(dur))
		}
	}
	m["trace.spans"] = float64(len(spans))
	m["trace.root_self_frac_max"] = worst
	byName := selfByName(spans, self)
	for _, name := range sortedKeys(byName) {
		e.logf("self_ms %-28s %12.3f", name, byName[name])
	}
	path := filepath.Join(e.spansDir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := writeSpans(path, spans, self); err != nil {
		return err
	}
	e.logf("spans %d written to %s", len(spans), path)
	return nil
}

// tracedDaemon is the traced run of daemon-stream: epochs on an
// in-process server without tracing for half the time, then the same
// epochs with spans and the timing cache decorator, then the engine
// layers on the epoch's fresh specs.
func (e *env) tracedDaemon(ctx context.Context) (map[string]float64, error) {
	// slice runs whole epochs for at least dur, each on a fresh hosted
	// server, and returns their loads, set-up times and the last server
	// (left running for the caller to inspect and close).
	slice := func(tr *tracer, dur time.Duration) ([]streamLoad, []float64, *specStream, *hosted, error) {
		var loads []streamLoad
		var setups []float64
		start := time.Now()
		for {
			h, err := e.hostServer(ctx, tr)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			specs := newSpecStream(e.seed)
			loads = append(loads, e.runStreamLoad(ctx, h.base, specs, epochCampaigns, tr))
			setups = append(setups, h.setup.Seconds())
			if time.Since(start) >= dur {
				return loads, setups, specs, h, nil
			}
			h.close()
		}
	}
	loads0, setups0, specs, h0, err := slice(nil, e.dur/2)
	if err != nil {
		return nil, err
	}
	h0.close()
	digest := e.streamDigest(loads0[0])
	e.checkDigest(digest)
	if err := e.compareInProcess(ctx, specs, loads0[0]); err != nil {
		return nil, err
	}

	tr := newTracer()
	loads1, setups1, _, h1, err := slice(tr, e.dur/2)
	if err != nil {
		return nil, err
	}
	defer h1.close()
	for _, lds := range [][]streamLoad{loads0[1:], loads1} {
		for _, ld := range lds {
			e.tally.check(e.streamDigest(ld) == digest, "an epoch's digest differs from the first epoch's %s", digest)
		}
	}
	// The last traced epoch's server is still up: its listing, journals
	// and cache timings are the service layers.
	m, err := e.serviceLayers(ctx, h1, loads1[len(loads1)-1:])
	if err != nil {
		return nil, err
	}
	untracedE2E, tracedE2E := streamEndToEnd(loads0), streamEndToEnd(loads1)
	untracedE2E["setup_s"], tracedE2E["setup_s"] = median(setups0), median(setups1)
	overhead(m, untracedE2E, tracedE2E)
	ld1 := loads1[len(loads1)-1]

	// The engine layers on the epoch's first fresh specs, each run as an
	// in-process sweep.
	var sps []sweepSpec
	var wire []api.CampaignSpec
	var frames []api.PointResult
	for f := range digestSpecs {
		spec := specs.fresh[f]
		res, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		sps = append(sps, sweepSpec{base: res.Base, grid: res.Grid, rule: stopRule{MinRuns: spec.Runs, MaxRuns: spec.Runs}})
		wire = append(wire, spec)
	}
	for _, o := range ld1.outcomes {
		frames = append(frames, o.frames...)
		if len(frames) > 300 {
			break
		}
	}
	s := engine.NewSession(sps[0].sessionOptions(e.workers)...)
	var runs [][]sweepRun
	var total time.Duration
	for i, sp := range sps {
		// Untraced first: its time is the nproc-worker baseline.
		sw, err := sweepOnce(ctx, s, sp, nil, "")
		if err != nil {
			return nil, err
		}
		total += sw.total
		swt, err := sweepOnce(ctx, s, sp, tr, fmt.Sprintf("spec-%d", i))
		if err != nil {
			return nil, err
		}
		runs = append(runs, []sweepRun{swt})
	}
	eng, err := e.engineLayers(ctx, sps, runs, total.Seconds(), tr)
	if err != nil {
		return nil, err
	}
	for k, v := range eng {
		m[k] = v
	}
	for k, v := range e.apiLayers(wire, frames) {
		m[k] = v
	}
	if err := e.finishTrace(tr, m); err != nil {
		return nil, err
	}
	return m, nil
}
