// Command perfbench is the repository's benchmark: a single-process load
// generator for the simulator and its service. It runs one of three
// workloads for a fixed time, checks every output, and prints its
// metrics as the last line of standard output:
//
//	go run . -workload paper-sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans around its calls into each layer, writes them out, and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and the layer map; run.sh builds and runs it from the
// repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the end-to-end metrics every workload reports with
// tracing off, in BENCHMARK.json order.
var endToEndUnits = []nameUnit{
	{"sweep_s", "s"},
	{"replicates_per_s", "1/s"},
	{"campaign_p50_ms", "ms"},
	{"campaign_p90_ms", "ms"},
	{"first_frame_p50_ms", "ms"},
	{"first_frame_p90_ms", "ms"},
	{"campaigns_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

type nameUnit struct{ name, unit string }

// env is what a workload gets from the command line.
type env struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	workers  int
	coopsimd string
	spansDir string
	digests  map[string]map[string]string
	tally    *tally
	// log receives human-readable lines; the result line goes last.
	log io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// workloadFunc runs one workload and returns its metric values by name
// (end-to-end with tracing off, per-layer with tracing on).
type workloadFunc func(ctx context.Context, e *env) (map[string]float64, error)

var workloads = map[string]workloadFunc{
	"paper-sweep": func(ctx context.Context, e *env) (map[string]float64, error) {
		return runSweepWorkload(ctx, e, paperSweep(e.seed))
	},
	"long-horizon": func(ctx context.Context, e *env) (map[string]float64, error) {
		return runSweepWorkload(ctx, e, longHorizon(e.seed))
	},
	"daemon-stream": runDaemonWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-sweep, long-horizon or daemon-stream")
	seed := fs.Uint64("seed", 1, "workload seed: the generator derives every grid and campaign spec from it")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traceOn := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	coopsimd := fs.String("coopsimd", ".bench_build/coopsimd", "coopsimd binary for daemon-stream")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	digestsPath := fs.String("digests", "perfbench/digests.json", "recorded results digests")
	root := fs.String("root", ".", "repository root, for the run metadata")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	digests, err := loadDigests(*digestsPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	meta := collectMeta(*root, *name, *seed, *traceOn == 1)
	mb, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "meta %s\n", mb)

	e := &env{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *traceOn == 1,
		workers:  runtime.NumCPU(),
		coopsimd: *coopsimd,
		spansDir: *spansDir,
		digests:  digests,
		tally:    &tally{},
		log:      stdout,
	}
	// Every workload finishes well inside this; it only bounds a hang.
	// An interrupt cancels the run too, so the daemon children are
	// stopped before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, max(170*time.Second, 2*e.dur+60*time.Second))
	defer cancel()
	values, err := wf(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	units := endToEndUnits
	if e.trace {
		units = perLayerUnits
	}
	res := result{Metrics: map[string]metric{}}
	for _, nu := range units {
		v, ok := values[nu.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", *name, nu.name)
			return 1
		}
		res.Metrics[nu.name] = metric{Value: v, Unit: nu.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", nu.name, v, nu.unit)
	}
	t := e.tally
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	for _, r := range t.reasons {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", r)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// loadDigests reads the recorded results digests: workload -> seed ->
// digest.
func loadDigests(path string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("recorded digests %s: %w", path, err)
	}
	return d, nil
}

// checkDigest compares a run's results digest with the one recorded for
// its workload and seed, when there is one.
func (e *env) checkDigest(digest string) {
	e.logf("results_digest %s", digest)
	want, ok := e.digests[e.workload][fmt.Sprint(e.seed)]
	if !ok {
		return
	}
	e.tally.check(digest == want, "results digest %s, recorded %s for seed %d", digest, want, e.seed)
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
