package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/iomodel"
	"repro/internal/jobsched"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file holds the layer probes of the traced run. Each drives one
// layer's public API with inputs taken from the workload: the grid
// points' configurations and replicate seeds, and the sizes, rates and
// queue depths those replicates imply.

// probePoint is one grid point to replay: its configuration, the
// replicates the sweep folded, and the mean the sweep reported.
type probePoint struct {
	cfg  engine.Config
	runs int
	mean float64
}

// arenaStats is what the arena probe learns about the workload for the
// finer probes.
type arenaStats struct {
	replicateTotal time.Duration
	wasteRatios    []float64
	// pending and spread estimate the event set a replicate holds: its
	// size and the time span it covers, in simulated seconds.
	pending float64
	spread  float64
	// failPerStart is the injected failures per job start.
	failPerStart float64
}

// arenaProbe replays every point's replicates on one arena, the way a
// session worker runs them, timing NewArena, Reconfigure and each Run,
// counting allocations per Run, and counting event kinds on one traced
// replicate per point. The replayed mean must equal the sweep's.
func (e *env) arenaProbe(pts []probePoint, tr *tracer) (map[string]float64, arenaStats, error) {
	var st arenaStats
	var builds, reconfs, reps, allocs []float64
	for _, p := range pts {
		t0 := time.Now()
		a, err := engine.NewArena(p.cfg)
		if err != nil {
			return nil, st, err
		}
		builds = append(builds, ms(time.Since(t0)))
		runtime.KeepAlive(a)
	}
	arena, err := engine.NewArena(pts[0].cfg)
	if err != nil {
		return nil, st, err
	}
	var events, jobs, failures, ckpts, cuts, replicates float64
	mix := map[string]float64{}
	var running, runningSamples float64
	var simSeconds, simEvents float64
	var ms0, ms1 runtime.MemStats
	for pi, p := range pts {
		traceID := fmt.Sprintf("probe-%d", pi)
		root := tr.start(traceID, "probe.point", 0)
		t0 := time.Now()
		if err := arena.Reconfigure(p.cfg); err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		reconfs = append(reconfs, ms(t1.Sub(t0)))
		tr.record(traceID, "engine.Arena.Reconfigure", root, t0, t1)
		sum := 0.0
		for i := range p.runs {
			seed := rng.ReplicateSeed(p.cfg.Seed, i)
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			r, err := arena.Run(seed)
			t1 := time.Now()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, st, err
			}
			tr.record(traceID, "engine.Arena.Run", root, t0, t1)
			d := t1.Sub(t0)
			st.replicateTotal += d
			reps = append(reps, ms(d))
			if pi > 0 || i > 0 {
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			}
			sum += r.WasteRatio
			st.wasteRatios = append(st.wasteRatios, r.WasteRatio)
			events += float64(r.Events)
			jobs += float64(r.JobsGenerated)
			failures += float64(r.FailureEvents)
			ckpts += float64(r.Checkpoints)
			cuts += float64(r.CheckpointsCut)
			replicates++
		}
		e.tally.check(sum/float64(p.runs) == p.mean, "point %d: replayed mean %v, sweep reported %v", pi, sum/float64(p.runs), p.mean)

		// One replicate per point through the public trace hook, untimed:
		// the event mix and the number of jobs running.
		cfg := p.cfg
		live := 0.0
		cfg.Trace = func(ev engine.TraceEvent) {
			mix[ev.Kind]++
			switch ev.Kind {
			case "job-start":
				live++
			case "job-complete", "job-killed":
				live--
			}
			running += live
			runningSamples++
		}
		if err := arena.Reconfigure(cfg); err != nil {
			return nil, st, err
		}
		r, err := arena.Run(rng.ReplicateSeed(cfg.Seed, 0))
		if err != nil {
			return nil, st, err
		}
		simSeconds += r.SimulatedSeconds
		simEvents += float64(r.Events)
		tr.end(root)
	}
	n := float64(len(pts))
	m := map[string]float64{
		"engine.arena.replicate_ms":         median(reps),
		"engine.arena.ns_per_event":         float64(st.replicateTotal.Nanoseconds()) / events,
		"engine.arena.allocs_per_replicate": median(allocs),
		"engine.arena.build_ms":             median(builds),
		"engine.arena.reconfigure_ms":       median(reconfs),
		"sim.events_per_replicate":          events / replicates,
		"workload.jobs_per_replicate":       jobs / replicates,
		"failure.events_per_replicate":      failures / replicates,
		"iomodel.ckpt_cut_frac":             cuts / (ckpts + cuts),
	}
	for _, k := range traceKinds {
		m["sim.mix."+k] = mix[k] / n
	}
	// Each running job holds about two timers, plus the failure arm and
	// the device's wake.
	st.pending = 2*running/max(runningSamples, 1) + 2
	st.spread = st.pending * simSeconds / simEvents
	st.failPerStart = mix["failure"] / max(mix["job-start"], 1)
	return m, st, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hold is a self-rescheduling event: the classic hold model of an event
// set at steady state.
type hold struct {
	eng    *sim.Engine
	r      *rand.Rand
	spread float64
}

func (h *hold) Fire() { h.eng.ScheduleHandler(h.eng.Now()+h.r.ExpFloat64()*h.spread, h) }

type nop struct{}

func (nop) Fire() {}

// simProbe times one Step of a pending set of the workload's size and
// time spread on the scheduler its horizon selects, and a schedule plus
// cancel of a far event.
func simProbe(cfg engine.Config, st arenaStats, seed uint64) map[string]float64 {
	kind := sim.Heap4
	if cfg.HorizonDays >= engine.CalendarAutoHorizonDays {
		kind = sim.Calendar
	}
	eng := sim.NewWith(kind)
	h := &hold{eng: eng, r: newGen(seed, 10), spread: st.spread}
	for range int(st.pending) {
		eng.ScheduleHandler(h.r.ExpFloat64()*st.spread, h)
	}
	const warm, steps = 20000, 200000
	for range warm {
		eng.Step()
	}
	t0 := time.Now()
	for range steps {
		eng.Step()
	}
	step := float64(time.Since(t0).Nanoseconds()) / steps
	var n nop
	t0 = time.Now()
	for range steps {
		ev := eng.ScheduleHandler(eng.Now()+h.r.ExpFloat64()*st.spread, n)
		ev.Cancel()
	}
	cancel := float64(time.Since(t0).Nanoseconds()) / steps
	return map[string]float64{"sim.schedule_step_ns": step, "sim.cancel_ns": cancel}
}

// jobSizes generates one replicate's job list for the configuration and
// returns its per-job node counts, with the class parameters.
func jobSizes(cfg engine.Config, seed uint64) ([]int, []workload.ClassParams, error) {
	params, err := workload.Instantiate(cfg.Platform, cfg.Classes)
	if err != nil {
		return nil, nil, err
	}
	gen := workload.DefaultGenConfig()
	gen.MinDays = cfg.HorizonDays
	jobs, err := workload.Generate(rng.New(seed), cfg.Platform, params, gen)
	if err != nil {
		return nil, nil, err
	}
	sizes := make([]int, len(jobs))
	for i, j := range jobs {
		sizes[i] = params[j.Class].Nodes
	}
	return sizes, params, nil
}

// layerProbes times the finer layers with the workload's sizes and
// rates: NodeMap allocation and owner lookups, first-fit scans, token
// and shared-device transfers, job generation, ledger updates and
// accumulator adds.
func layerProbes(pts []probePoint, st arenaStats, seed uint64) (map[string]float64, error) {
	cfg := pts[0].cfg
	sizes, params, err := jobSizes(cfg, seed)
	if err != nil {
		return nil, err
	}
	r := newGen(seed, 11)
	m := simProbe(cfg, st, seed)

	// platform: replay the job sizes through a NodeMap, releasing random
	// live jobs to make room, with bursts of owner lookups at the
	// failure rate.
	nodes := cfg.Platform.Nodes
	nm := platform.NewNodeMap(nodes)
	var live []int32
	var allocT, ownerT time.Duration
	allocNodes, lookups := 0, 0
	acc := 0.0
	const ops = 20000
	for op := range ops {
		q := sizes[op%len(sizes)]
		for nm.Free() < q {
			k := r.IntN(len(live))
			if err := nm.Release(live[k]); err != nil {
				return nil, err
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		t0 := time.Now()
		nm.Allocate(int32(op), q)
		allocT += time.Since(t0)
		allocNodes += q
		live = append(live, int32(op))
		if acc += st.failPerStart; acc >= 1 || op%64 == 0 {
			acc = max(acc-1, 0)
			t0 := time.Now()
			for range 64 {
				nm.Owner(int32(r.IntN(nodes)))
			}
			ownerT += time.Since(t0)
			lookups += 64
		}
	}
	m["platform.alloc_ns_per_node"] = float64(allocT.Nanoseconds()) / float64(allocNodes)
	m["platform.owner_ns"] = float64(ownerT.Nanoseconds()) / float64(lookups)

	// jobsched: first-fit over the whole generated job list, the queue a
	// replicate starts from, with a random share of the machine free.
	var q jobsched.Queue
	for i, s := range sizes {
		q.PushNormal(jobsched.Item{ID: int32(i), Nodes: s})
	}
	var started []jobsched.Item
	const scans = 2000
	t0 := time.Now()
	for range scans {
		started = started[:0]
		q.FirstFit(r.IntN(nodes/4+1), func(it jobsched.Item) { started = append(started, it) })
		for _, it := range started {
			q.PushNormal(it)
		}
	}
	m["jobsched.firstfit_ns"] = float64(time.Since(t0).Nanoseconds()) / scans

	// iomodel: checkpoint-sized transfers through a single-token device
	// (submit, grant, complete), and submit+abort on a shared device
	// holding one transfer per running job.
	bw := cfg.Platform.BandwidthBps
	eng := sim.New()
	tok := iomodel.NewTokenDeviceK(eng, bw, iomodel.FCFS{}, 1)
	ts := make([]iomodel.Transfer, 256)
	var sink nopSink
	const batches = 40
	t0 = time.Now()
	for range batches {
		for i := range ts {
			p := params[i%len(params)]
			ts[i] = iomodel.Transfer{Kind: iomodel.Checkpoint, Volume: p.CkptBytes, Nodes: p.Nodes, Sink: sink}
			tok.Submit(&ts[i])
		}
		eng.RunAll()
	}
	m["iomodel.token_cycle_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(batches*len(ts))
	eng = sim.New()
	shared := iomodel.NewSharedDevice(eng, bw, iomodel.LinearShare{})
	bg := make([]iomodel.Transfer, max(int(st.pending/2), 1))
	for i := range bg {
		bg[i] = iomodel.Transfer{Kind: iomodel.Regular, Volume: 1e18, Nodes: 1 + i, Sink: sink}
		shared.Submit(&bg[i])
	}
	const aborts = 20000
	var t iomodel.Transfer
	t0 = time.Now()
	for range aborts {
		t = iomodel.Transfer{Kind: iomodel.Checkpoint, Volume: params[0].CkptBytes, Nodes: params[0].Nodes, Sink: sink}
		shared.Submit(&t)
		shared.Abort(&t)
	}
	m["iomodel.shared_abort_ns"] = float64(time.Since(t0).Nanoseconds()) / aborts

	// workload: generate each point's first replicate job list into a
	// reused buffer.
	var gens []float64
	var buf []workload.Job
	for _, p := range pts {
		ps, err := workload.Instantiate(p.cfg.Platform, p.cfg.Classes)
		if err != nil {
			return nil, err
		}
		gen := workload.DefaultGenConfig()
		gen.MinDays = p.cfg.HorizonDays
		g := rng.New(rng.ReplicateSeed(p.cfg.Seed, 0))
		t0 := time.Now()
		buf, err = workload.GenerateInto(g, p.cfg.Platform, ps, gen, buf[:0])
		if err != nil {
			return nil, err
		}
		gens = append(gens, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["workload.generate_us"] = median(gens)

	// metrics: a mix of useful, waste and I/O charges over the window.
	w1 := cfg.HorizonDays * 86400
	led := metrics.NewLedger(86400, w1-86400)
	const adds = 300000
	spans := make([][2]float64, 1024)
	for i := range spans {
		a := r.Float64() * w1
		spans[i] = [2]float64{a, a + r.ExpFloat64()*3600}
	}
	cats := metrics.Categories()
	t0 = time.Now()
	for i := range adds {
		s := spans[i%len(spans)]
		switch i % 3 {
		case 0:
			led.AddUseful(sizes[i%len(sizes)], s[0], s[1])
		case 1:
			led.AddWaste(cats[i%len(cats)], sizes[i%len(sizes)], s[0], s[1])
		default:
			led.AddIO(sizes[i%len(sizes)], s[0], s[1], (s[1]-s[0])/2)
		}
	}
	m["metrics.ledger_add_ns"] = float64(time.Since(t0).Nanoseconds()) / adds

	// stats: a fresh accumulator per point, fed that point's replicate
	// waste ratios, as the Monte-Carlo fold does.
	var accAdds int
	t0 = time.Now()
	for rep := 0; accAdds < 300000; rep++ {
		off := 0
		for _, p := range pts {
			var a stats.Accumulator
			for _, x := range st.wasteRatios[off : off+p.runs] {
				a.Add(x)
			}
			off += p.runs
			accAdds += p.runs
		}
	}
	m["stats.accumulator_add_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(accAdds)
	return m, nil
}

type nopSink struct{}

func (nopSink) TransferStarted(*iomodel.Transfer, float64)   {}
func (nopSink) TransferCompleted(*iomodel.Transfer, float64) {}
