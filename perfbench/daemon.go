package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
)

// daemonBatch is the campaign count whose completion time the
// daemon-stream workload reports as sweep_s.
const daemonBatch = 50

// digestSpecs is how many fresh daemon-stream specs enter the results
// digest, in generation order.
const digestSpecs = 16

// daemonProc is a coopsimd child process.
type daemonProc struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
	dirs  []string
}

// firstLine captures the first line a child writes to stdout and
// discards the rest.
type firstLine struct {
	buf  []byte
	ch   chan string
	sent bool
}

func (f *firstLine) Write(p []byte) (int, error) {
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.ch <- string(f.buf[:i])
			f.sent = true
		}
	}
	return len(p), nil
}

// startDaemon execs coopsimd on an ephemeral loopback port with fresh
// data and cache directories, and returns once /healthz answers ok. The
// time from exec to that answer is the daemon's set-up time.
func startDaemon(ctx context.Context, e *env) (*daemonProc, error) {
	d := &daemonProc{}
	for _, prefix := range []string{"perfbench-data-", "perfbench-cache-"} {
		dir, err := os.MkdirTemp("", prefix)
		if err != nil {
			d.cleanup()
			return nil, err
		}
		d.dirs = append(d.dirs, dir)
	}
	out := &firstLine{ch: make(chan string, 1)}
	t0 := time.Now()
	d.cmd = exec.Command(e.coopsimd, "-addr", "127.0.0.1:0",
		"-data-dir", d.dirs[0], "-cache-dir", d.dirs[1],
		"-max-campaigns", "2", "-queue", "8", "-workers", strconv.Itoa(e.workers))
	d.cmd.Stdout = out
	d.cmd.Stderr = io.Discard
	if err := d.cmd.Start(); err != nil {
		d.cleanup()
		return nil, fmt.Errorf("start coopsimd: %w", err)
	}
	fail := func(err error) (*daemonProc, error) {
		d.stop()
		return nil, err
	}
	var line string
	select {
	case line = <-out.ch:
	case <-time.After(30 * time.Second):
		return fail(errors.New("coopsimd printed no listen address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	addr, ok := strings.CutPrefix(line, "coopsimd: listening on ")
	if !ok {
		return fail(fmt.Errorf("unexpected coopsimd output %q", line))
	}
	d.base = addr
	if err := waitHealthy(ctx, d.base, t0); err != nil {
		return fail(err)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing it
// after 20 s), and removes its directories.
func (d *daemonProc) stop() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			d.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-done
		}
		d.cmd = nil
	}
	d.cleanup()
}

func (d *daemonProc) cleanup() {
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
	d.dirs = nil
}

// waitHealthy polls /healthz until it answers ok, giving up 30 s after
// start.
func waitHealthy(ctx context.Context, base string, start time.Time) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		var h api.Health
		if err := getJSON(hc, base+"/healthz", &h); err == nil && h.Status == "ok" {
			return nil
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			return fmt.Errorf("%s/healthz never answered ok", base)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// campaignOutcome is one submitted campaign as its client saw it.
type campaignOutcome struct {
	k, fresh   int
	start      time.Time
	submitted  time.Time // submit response read
	firstFrame time.Time // first point frame read
	end        time.Time // end frame read
	// submitStatus is the HTTP status of the POST (0 when it got none).
	submitStatus int
	ttfb         time.Duration
	gaps         []time.Duration
	frames       []api.PointResult
	err          error
}

// runCampaign submits one spec and streams its results to the end
// frame, recording spans under the campaign's trace id.
func runCampaign(ctx context.Context, hc *http.Client, base string, spec api.CampaignSpec, tr *tracer, traceID string) (out campaignOutcome) {
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	root := tr.start(traceID, "campaign", 0)
	defer tr.end(root)
	out.start = time.Now()
	sub := tr.start(traceID, "server.submit", root)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		tr.end(sub)
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	var sr api.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	tr.end(sub)
	out.submitted = time.Now()
	out.submitStatus = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Errorf("submit: %s", resp.Status)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("submit response: %w", err)
		return out
	}

	st := tr.start(traceID, "server.stream", root)
	defer tr.end(st)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+sr.ID+"/results", nil)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	resp, err = hc.Do(req)
	if err != nil {
		out.err = fmt.Errorf("stream: %w", err)
		return out
	}
	defer resp.Body.Close()
	last := time.Now()
	out.ttfb = last.Sub(t0)
	tr.record(traceID, "server.stream.ttfb", st, t0, last)
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("stream: %s", resp.Status)
		return out
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			out.err = fmt.Errorf("stream ended before the end frame: %w", err)
			return out
		}
		now := time.Now()
		tr.record(traceID, "server.frame", st, last, now)
		out.gaps = append(out.gaps, now.Sub(last))
		last = now
		var fr api.StreamFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			out.err = fmt.Errorf("bad frame: %w", err)
			return out
		}
		switch {
		case fr.Point != nil:
			if out.firstFrame.IsZero() {
				out.firstFrame = now
			}
			out.frames = append(out.frames, *fr.Point)
		case fr.End != nil:
			out.end = now
			if fr.End.State != "done" || fr.End.Points != len(out.frames) {
				out.err = fmt.Errorf("campaign ended %s with %d of %d frames: %s",
					fr.End.State, len(out.frames), fr.End.Points, fr.End.Error)
			}
			return out
		default:
			out.err = errors.New("empty frame")
			return out
		}
	}
}

// checkFrames applies the per-point output checks to a finished
// campaign's frames.
func checkFrames(spec api.CampaignSpec, frames []api.PointResult) error {
	g := spec.Grid
	want := 1
	for _, n := range []int{len(g.BandwidthsBps), len(g.NodeMTBFSeconds), len(g.FailureSpecs), len(g.Channels), len(g.Strategies)} {
		want *= max(n, 1)
	}
	if len(frames) != want {
		return fmt.Errorf("%d point frames, want %d", len(frames), want)
	}
	rule := stopRule{MinRuns: spec.Runs, MaxRuns: spec.Runs}
	if t := spec.Options.TargetCI; t != nil {
		rule = stopRule{HalfWidth: t.HalfWidth, MinRuns: t.MinRuns, MaxRuns: t.MaxRuns}
	}
	for i, fr := range frames {
		if fr.Index != i || fr.Status != "done" || fr.MC == nil {
			return fmt.Errorf("frame %d: index %d status %s", i, fr.Index, fr.Status)
		}
		if err := checkMC(fr.MC.Engine(), rule); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return nil
}

// streamLoad is the outcome of the closed-loop clients over one daemon
// epoch.
type streamLoad struct {
	outcomes []campaignOutcome // completed, in completion order
	start    time.Time
	wall     time.Duration
	attempts int
	rejected int // non-2xx submissions
}

// runStreamLoad drives two closed-loop clients against the service at
// base until n submissions of the shared sequence are done: each client
// submits the next spec, streams it to the end frame, and submits again.
func (e *env) runStreamLoad(ctx context.Context, base string, specs *specStream, n int, tr *tracer) streamLoad {
	const clients = 2
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	ld := streamLoad{start: time.Now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := specs.next()
				if k >= n {
					return
				}
				spec, f := specs.at(k)
				out := runCampaign(ctx, hc, base, spec, tr, fmt.Sprintf("c-%d", k))
				out.k, out.fresh = k, f
				if out.err == nil {
					out.err = checkFrames(spec, out.frames)
				}
				mu.Lock()
				ld.attempts++
				if out.submitStatus != http.StatusAccepted {
					ld.rejected++
				}
				if out.err != nil {
					e.tally.fail("campaign %d: %v", k, out.err)
				} else {
					e.tally.ok()
					ld.outcomes = append(ld.outcomes, out)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ld.wall = time.Since(ld.start)
	sort.Slice(ld.outcomes, func(i, j int) bool { return ld.outcomes[i].end.Before(ld.outcomes[j].end) })
	return ld
}

// streamEndToEnd reduces the epochs' outcomes to the end-to-end
// metrics. sweep_s is the median time to complete each block of
// daemonBatch campaigns.
func streamEndToEnd(loads []streamLoad) map[string]float64 {
	var camp, first, batches []float64
	var wall time.Duration
	simulated, completed := 0, 0
	for _, ld := range loads {
		wall += ld.wall
		completed += len(ld.outcomes)
		prev := ld.start
		for i, o := range ld.outcomes {
			camp = append(camp, float64(o.end.Sub(o.start))/float64(time.Millisecond))
			first = append(first, float64(o.firstFrame.Sub(o.start))/float64(time.Millisecond))
			for _, fr := range o.frames {
				if !fr.MC.Cached {
					simulated += fr.MC.RunsUsed
				}
			}
			if (i+1)%daemonBatch == 0 {
				batches = append(batches, o.end.Sub(prev).Seconds())
				prev = o.end
			}
		}
	}
	return map[string]float64{
		"sweep_s":            median(batches),
		"replicates_per_s":   float64(simulated) / wall.Seconds(),
		"campaign_p50_ms":    quantile(camp, 0.5),
		"campaign_p90_ms":    quantile(camp, 0.9),
		"first_frame_p50_ms": quantile(first, 0.5),
		"first_frame_p90_ms": quantile(first, 0.9),
		"campaigns_per_s":    float64(completed) / wall.Seconds(),
	}
}

// streamDigest digests the frames of the epoch's first fresh specs in
// generation order.
func (e *env) streamDigest(ld streamLoad) string {
	byFresh := map[int][]api.PointResult{}
	for _, o := range ld.outcomes {
		if _, seen := byFresh[o.fresh]; !seen {
			byFresh[o.fresh] = o.frames
		}
	}
	d := newDigester()
	for f := range digestSpecs {
		frames, ok := byFresh[f]
		e.tally.check(ok, "fresh spec %d never completed", f)
		for _, fr := range frames {
			d.add(f*100+fr.Index, fr.Strategy, fr.BandwidthBps, fr.NodeMTBFSeconds, fr.MC.Engine())
		}
	}
	return d.sum()
}

// compareInProcess checks a sample of the epoch's campaigns against
// in-process campaign runs of the same spec: the frames must be
// bit-identical.
func (e *env) compareInProcess(ctx context.Context, specs *specStream, ld streamLoad) error {
	n := len(ld.outcomes)
	for i := 0; i < 8 && n > 0; i++ {
		o := ld.outcomes[i*n/8]
		spec, _ := specs.at(o.k)
		want, err := inProcessFrames(ctx, spec, e.workers)
		if err != nil {
			return err
		}
		e.tally.check(framesDigest(o.frames) == framesDigest(want),
			"campaign %d: streamed frames differ from the in-process campaign run", o.k)
	}
	return nil
}

// inProcessFrames runs the spec through the campaign layer in-process
// and encodes its points as the service would.
func inProcessFrames(ctx context.Context, spec api.CampaignSpec, workers int) ([]api.PointResult, error) {
	res, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	c := campaign.New(campaign.Options{Workers: workers, TargetCI: res.TargetCI, Antithetic: res.Antithetic})
	seq, errf := c.RunSweep(ctx, res.Base, res.Grid, res.Runs)
	var out []api.PointResult
	for pr := range seq {
		out = append(out, api.FromPointResult(pr))
	}
	return out, errf()
}

func framesDigest(frames []api.PointResult) string {
	d := newDigester()
	for _, fr := range frames {
		d.s(fr.Status)
		if fr.MC != nil {
			d.add(fr.Index, fr.Strategy, fr.BandwidthBps, fr.NodeMTBFSeconds, fr.MC.Engine())
		}
	}
	return d.sum()
}

// epochCampaigns is the submission count of one daemon epoch. The server
// keeps every campaign in memory, so a run is a series of identical
// epochs, each on a fresh daemon, which bounds the daemon's memory and
// makes peak_rss_mb the footprint after a fixed number of campaigns.
const epochCampaigns = 300

// daemonEpoch runs one epoch against a fresh coopsimd child and returns
// its load, the daemon's set-up time and its peak RSS.
func (e *env) daemonEpoch(ctx context.Context) (streamLoad, *specStream, float64, float64, error) {
	d, err := startDaemon(ctx, e)
	if err != nil {
		return streamLoad{}, nil, 0, 0, err
	}
	defer d.stop()
	specs := newSpecStream(e.seed)
	ld := e.runStreamLoad(ctx, d.base, specs, epochCampaigns, nil)
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return ld, specs, 0, 0, err
	}
	return ld, specs, d.setup.Seconds(), rss, nil
}

func runDaemonWorkload(ctx context.Context, e *env) (map[string]float64, error) {
	if e.trace {
		return e.tracedDaemon(ctx)
	}
	var loads []streamLoad
	var setups []float64
	var rss float64
	first := ""
	start := time.Now()
	for len(loads) == 0 || time.Since(start) < e.dur {
		ld, specs, setup, r, err := e.daemonEpoch(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		rss = max(rss, r)
		digest := e.streamDigest(ld)
		if first == "" {
			first = digest
			e.checkDigest(digest)
			if err := e.compareInProcess(ctx, specs, ld); err != nil {
				return nil, err
			}
		} else {
			e.tally.check(digest == first, "epoch %d digest %s differs from the first epoch's %s", len(loads), digest, first)
		}
		loads = append(loads, ld)
	}
	// At least nine set-up samples, whatever the epoch count.
	for len(setups) < 9 {
		d, err := startDaemon(ctx, e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		d.stop()
	}
	m := streamEndToEnd(loads)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rss
	completed, rejected := 0, 0
	for _, ld := range loads {
		completed += len(ld.outcomes)
		rejected += ld.rejected
	}
	e.logf("%d epochs of %d submissions, %d campaigns completed (reportable percentile p%d), %d rejected",
		len(loads), epochCampaigns, completed, reportablePercentile(completed, 10), rejected)
	return m, nil
}
