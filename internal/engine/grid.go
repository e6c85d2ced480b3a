package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/faultinject"
)

// This file is the engine's Monte-Carlo scheduler. Every experiment runs
// here as a grid of one or more points: a Sweep is the whole scenario
// grid, while MonteCarlo, MonteCarloResume, each ComparePaired leg and
// each MinBandwidth probe are one-point grids. The unit of dispatch is a
// (point, replicate-chunk) work item. Workers steal across point
// boundaries — no worker idles at a point boundary while any point in
// the dispatch horizon still has work — while the coordinator (the
// caller's goroutine) folds each point's replicates in strict run order
// through its mcFold and releases finished points in grid order through
// a bounded reorder window.
//
// Results do not depend on the schedule: replicate i of a point is a
// pure function of (cfg.Seed, i) under the CRN schedule regardless of
// which worker simulates it, and all aggregation — including
// sequential-stopping decisions, which are evaluated at fold boundaries
// on the in-order prefix — happens in per-point run order on the
// coordinator.

// gridPoint is one experiment of a grid: a resolved configuration, its
// replication count, and the options its replicates fold under.
type gridPoint struct {
	cfg  Config
	runs int
	opts MCOptions
}

// gridItem is one simulated replicate in flight from a worker to the
// coordinator. Every dispatched run index produces exactly one item: a
// result, an error, or a canceled marker.
type gridItem struct {
	p, i int
	r    Result
	err  error
	// canceled marks a context error observed at dispatch; the
	// coordinator surfaces ctx.Err() itself rather than folding these.
	canceled bool
}

// gridPointState tracks one grid point. The scheduling counters (cursor,
// foldedPub, active) are shared with workers under gridSweep.mu; the
// fold state (fold, pending, nextFold, mc, err, done) belongs to the
// coordinator alone; cfg and anti are immutable once workers start.
type gridPointState struct {
	cfg  Config
	anti bool
	key  string
	// dupOf is the lowest-index grid point with the same content
	// address (-1 when this point is the canonical cell): the
	// provably-duplicate k-axis × shared-device case SweepGrid
	// documents. Duplicates are never dispatched; they receive a clone
	// of the canonical result, marked Cached.
	dupOf int

	// Coordinator-private fold state.
	fold     *mcFold
	pending  map[int]gridItem
	nextFold int
	total    int
	mc       MCResult
	err      error
	invalid  bool // err came from validation at setup
	done     bool

	// Scheduling state, guarded by gridSweep.mu.
	cursor    int  // next run index to dispatch
	foldedPub int  // published fold progress (mirrors nextFold)
	active    bool // dispatchable: not done, not errored, not a duplicate
}

// gridSweep is one grid execution.
type gridSweep struct {
	states []*gridPointState
	arenas []*Arena

	// chunk is the work-item length: min(8, ceil(remaining/workers))
	// under fixed replication, so even a one-point grid spreads over
	// every worker; single runs (pairs under antithetic) under
	// sequential stopping, so speculation past a stopping decision
	// stays bounded.
	chunk int
	// window bounds per-point dispatch past the fold frontier (4 ×
	// workers), which also caps the pending map per point.
	window int
	// lookahead bounds dispatch past the yield frontier in points,
	// capping how many finished MCResults the reorder window can hold.
	// It is 1 when a point carries an OnResult observer, so the hook
	// sees the whole experiment in point-major, run-ascending order.
	lookahead int

	mu   sync.Mutex
	cond *sync.Cond
	// nextYield is the reorder frontier: the lowest grid point not yet
	// delivered to the consumer. Written by the coordinator only.
	nextYield int
	// errPoint is the lowest grid point that failed; dispatch freezes at
	// it (points before it still complete and deliver) and the grid
	// surfaces its error when the yield frontier reaches it.
	errPoint int
	halted   bool

	dups map[int][]int
	memo *sweepMemo
}

// runGrid evaluates the points as one experiment on the session pool and
// hands each finished point to yield in point order; a false return stops
// the grid. memo, when non-nil, deduplicates and caches points by content
// address (Sweep only). progress, when non-nil, observes the running
// count of replicates folded across the grid. On failure runGrid returns
// the index of the point the error belongs to, so a Sweep can attribute
// it; a point-level error is returned unwrapped.
func (s *Session) runGrid(ctx context.Context, pts []gridPoint, memo *sweepMemo, progress func(folded int), yield func(p int, mc MCResult) bool) (int, error) {
	g := &gridSweep{
		states:    make([]*gridPointState, len(pts)),
		errPoint:  len(pts),
		lookahead: 1,
		dups:      map[int][]int{},
		memo:      memo,
	}
	g.cond = sync.NewCond(&g.mu)

	need, remaining := 0, 0
	seqOn, anti, observed := false, false, false
	keyOwner := map[string]int{}
	for p, gp := range pts {
		need += max(gp.runs, 0)
		observed = observed || gp.opts.OnResult != nil
		st := g.setup(p, gp, keyOwner)
		if st.active {
			remaining += st.total - st.cursor
			seqOn = seqOn || st.fold.seqOn
			anti = anti || st.anti
		}
	}
	if progress != nil {
		folded := 0
		report := func() {
			folded++
			progress(folded)
		}
		for _, st := range g.states {
			if st.fold != nil {
				st.fold.progress = report
			}
		}
	}

	// The pool sizes to the total grid work, not any single point's
	// replication count: a 30-point × 4-run grid keeps 16 workers busy
	// even though no point alone would.
	g.arenas = s.arenasFor(need)
	workers := min(len(g.arenas), remaining)
	g.window = 4 * workers
	if !observed {
		g.lookahead = 2*workers + 2
	}
	switch {
	case seqOn && anti:
		g.chunk = 2
	case seqOn || workers == 0:
		g.chunk = 1
	default:
		g.chunk = min(8, (remaining+workers-1)/workers)
	}
	for _, st := range g.states {
		if st.active {
			st.pending = make(map[int]gridItem, g.window)
		}
	}

	// Buffered to the speculation window, so a worker rarely blocks on
	// a coordinator busy folding or yielding.
	resCh := make(chan gridItem, 4*workers+4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.work(ctx, w, resCh)
		}(w)
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()
	// Halt dispatch and drain on every exit — error, cancellation, early
	// break, even a panicking yield — so the grid never leaks a worker
	// goroutine past its return.
	defer func() {
		g.mu.Lock()
		g.halted = true
		g.cond.Broadcast()
		g.mu.Unlock()
		for range resCh {
		}
	}()

	for {
		// Release finished points in grid order: an invalid point
		// surfaces at its position, cancellation at the first point not
		// yet delivered when it was observed.
		for g.nextYield < len(pts) {
			p := g.nextYield
			st := g.states[p]
			if st.invalid {
				return p, st.err
			}
			if e := ctx.Err(); e != nil {
				return p, e
			}
			if st.err != nil {
				return p, st.err
			}
			if !st.done {
				break
			}
			if !yield(p, st.mc) {
				return -1, nil
			}
			g.mu.Lock()
			g.nextYield++
			g.cond.Broadcast()
			g.mu.Unlock()
		}
		if g.nextYield == len(pts) {
			return -1, nil
		}
		select {
		case it, ok := <-resCh:
			if !ok {
				// Workers only exit once halted, which only the defer
				// sets — unreachable, but fail loudly over hanging.
				return g.nextYield, fmt.Errorf("engine: grid: result channel closed with %d points pending", len(pts)-g.nextYield)
			}
			g.process(ctx, it)
		case <-ctx.Done():
			// Surfaced by the yield loop's ctx check next iteration.
		}
	}
}

// setup validates point p, resolves it against the memo (an in-grid
// duplicate or a cache hit finishes it without simulation), and otherwise
// builds its fold — refolding the resume prefix when there is one, with
// dispatch starting at the first run past it.
func (g *gridSweep) setup(p int, gp gridPoint, keyOwner map[string]int) *gridPointState {
	st := &gridPointState{cfg: gp.cfg, anti: gp.opts.Antithetic, dupOf: -1}
	g.states[p] = st
	invalid := func(err error) *gridPointState {
		st.err, st.invalid = err, true
		g.errPoint = min(g.errPoint, p)
		return st
	}
	if gp.runs <= 0 {
		return invalid(fmt.Errorf("engine: non-positive run count %d", gp.runs))
	}
	if err := gp.cfg.Validate(); err != nil {
		return invalid(err)
	}
	st.key = g.memo.key(gp.cfg)
	if st.key != "" {
		if owner, ok := keyOwner[st.key]; ok {
			st.dupOf = owner
			if can := g.states[owner]; can.done {
				st.mc = cloneMCResult(can.mc)
				st.mc.Cached = true
				st.done = true
			} else {
				g.dups[owner] = append(g.dups[owner], p)
			}
			return st
		}
		keyOwner[st.key] = p
		if mc, ok := g.memo.lookup(st.key); ok {
			st.mc = mc
			st.done = true
			return st
		}
	}
	f, err := newPointFold(gp)
	if err != nil {
		return invalid(err)
	}
	st.fold = f
	st.total = f.total
	st.nextFold, st.cursor, st.foldedPub = f.folded, f.folded, f.folded
	if st.nextFold == st.total || f.stopped {
		// A resume prefix that already completes the experiment.
		st.mc = f.finalize()
		st.done = true
		return st
	}
	st.active = true
	return st
}

// newPointFold builds a point's fold, validating and refolding its resume
// prefix. Resume cannot restore per-run Results, so it refuses
// KeepResults.
func newPointFold(gp gridPoint) (*mcFold, error) {
	opts := gp.opts
	f := newMCFold(gp.cfg, gp.runs, opts)
	if len(opts.prefix) == 0 {
		return f, nil
	}
	if opts.KeepResults {
		return nil, fmt.Errorf("engine: resume requires the streaming path (no KeepResults)")
	}
	if len(opts.prefix) > f.total {
		return nil, fmt.Errorf("engine: resume prefix holds %d replicates, experiment has %d", len(opts.prefix), f.total)
	}
	f.refold(opts.prefix)
	return f, nil
}

// work is one grid worker: claim a work item, simulate its runs on this
// worker's arena (reconfigured when the claim switches points), send one
// item per run. Exits when next reports the grid halted.
func (g *gridSweep) work(ctx context.Context, w int, resCh chan<- gridItem) {
	lastP := -1
	reconfigured := false
	for {
		p, i, n := g.next(lastP)
		if p < 0 {
			return
		}
		if p != lastP {
			lastP = p
			reconfigured = false
		}
		st := g.states[p]
		var claimErr error
		if faultinject.Armed() {
			claimErr = fireGridDispatch(ctx, p, i, n)
		}
		for k := i; k < i+n; k++ {
			if claimErr != nil {
				resCh <- gridItem{p: p, i: k, err: claimErr}
				continue
			}
			if err := ctx.Err(); err != nil {
				resCh <- gridItem{p: p, i: k, err: err, canceled: true}
				continue
			}
			r, err := runReplicate(ctx, g.arenas, w, &reconfigured, st.cfg, k, st.anti)
			resCh <- gridItem{p: p, i: k, r: r, err: err}
		}
	}
}

// fireGridDispatch fires the dispatch fault-injection site under the same
// panic guard runReplicate gives user code: an injected panic surfaces as
// a *PanicError on the chunk's first run instead of killing the process.
func fireGridDispatch(ctx context.Context, p, i, n int) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = &PanicError{Run: i, Value: pv, Stack: debug.Stack()}
		}
	}()
	return faultinject.Fire(ctx, faultinject.SiteGridDispatch,
		faultinject.GridDispatch{Point: p, Run: i, Len: n})
}

// next claims the next work item for a worker: its current point while
// that point has dispatchable work (keeping the arena configured), else
// the lowest-index point in the dispatch horizon — work stealing across
// point boundaries. Blocks while no work is eligible; returns p = -1
// once the grid halts.
func (g *gridSweep) next(lastP int) (p, i, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.halted {
			return -1, 0, 0
		}
		p = -1
		if lastP >= 0 && g.eligibleLocked(lastP) {
			p = lastP
		} else {
			hi := min(len(g.states), g.nextYield+g.lookahead, g.errPoint)
			for q := g.nextYield; q < hi; q++ {
				if g.eligibleLocked(q) {
					p = q
					break
				}
			}
		}
		if p >= 0 {
			st := g.states[p]
			n = min(g.chunk, g.window-(st.cursor-st.foldedPub), st.total-st.cursor)
			i = st.cursor
			st.cursor += n
			return p, i, n
		}
		g.cond.Wait()
	}
}

// eligibleLocked reports whether point p has dispatchable work. Callers
// hold g.mu.
func (g *gridSweep) eligibleLocked(p int) bool {
	if p >= g.errPoint || p >= g.nextYield+g.lookahead {
		return false
	}
	st := g.states[p]
	return st.active && st.cursor < st.total && st.cursor-st.foldedPub < g.window
}

// process folds one delivered item on the coordinator: buffer it, fold
// the point's contiguous prefix in run order, and finalize the point when
// its stopping rule fires or its budget completes. Items for points that
// already finished (runs speculated past a stop, or past a failure) are
// dropped. Folding halts as soon as ctx is done, so the results observed
// before a cancellation form an exact in-order prefix.
func (g *gridSweep) process(ctx context.Context, it gridItem) {
	st := g.states[it.p]
	if st.done || st.err != nil || it.canceled {
		return
	}
	st.pending[it.i] = it
	changed := false
	for ctx.Err() == nil {
		q, ok := st.pending[st.nextFold]
		if !ok {
			break
		}
		delete(st.pending, st.nextFold)
		if q.err != nil {
			st.err = fmt.Errorf("engine: run %d: %w", q.i, q.err)
			st.pending = nil
			g.mu.Lock()
			st.active = false
			g.errPoint = min(g.errPoint, it.p)
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		stop := st.fold.fold(q.i, q.r)
		st.nextFold++
		changed = true
		if stop || st.nextFold == st.total {
			st.mc = st.fold.finalize()
			st.done = true
			st.pending = nil
			g.finishPoint(it.p)
			break
		}
	}
	if changed {
		g.mu.Lock()
		st.foldedPub = st.nextFold
		if st.done {
			st.active = false
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// finishPoint memoises a completed canonical point and materialises its
// duplicate cells as Cached clones.
func (g *gridSweep) finishPoint(p int) {
	st := g.states[p]
	g.memo.store(st.key, st.mc)
	for _, d := range g.dups[p] {
		sd := g.states[d]
		sd.mc = cloneMCResult(st.mc)
		sd.mc.Cached = true
		sd.done = true
	}
	delete(g.dups, p)
}
