// Command lowerbound evaluates the steady-state model of §4 (Theorem 1):
// the I/O-constrained optimal checkpoint periods and the platform-waste
// lower bound, replacing the paper's Maple worksheet.
//
// Examples:
//
//	lowerbound -bw 40 -mtbf 2                 # one point, per-class detail
//	lowerbound -sweep-bw 40:160:20 -mtbf 2    # Figure 1 theory series
//	lowerbound -sweep-mtbf 2:50:4 -bw 40      # Figure 2 theory series
//	lowerbound -bw 40 -simulate Least-Waste -runs 200   # bound vs measured
//
// -simulate cross-checks the bound against a Monte-Carlo measurement of
// the named strategy (8 bytes of memory per run, for the exact
// candlestick).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/units"
)

func main() {
	var (
		platformName = flag.String("platform", "cielo", "platform: cielo or prospective")
		bw           = flag.Float64("bw", 40, "aggregated PFS bandwidth in GB/s")
		mtbf         = flag.Float64("mtbf", 2, "node MTBF in years")
		sweepBW      = flag.String("sweep-bw", "", "sweep bandwidth lo:hi:step (GB/s)")
		sweepMTBF    = flag.String("sweep-mtbf", "", "sweep node MTBF lo:hi:step (years)")
		simulate     = flag.String("simulate", "", "cross-check the bound against a Monte-Carlo run of this strategy")
		runs         = flag.Int("runs", 100, "Monte-Carlo replications for -simulate")
		days         = flag.Float64("days", 60, "simulated segment length for -simulate")
		seed         = flag.Uint64("seed", 1, "master random seed for -simulate")
	)
	version := cliutil.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cliutil.HandleVersion("lowerbound", *version)

	mk := func(bwGBps, mtbfYears float64) repro.Platform {
		p, err := cliutil.Platform(*platformName, bwGBps, mtbfYears)
		if err != nil {
			cliutil.Exit("lowerbound", 1, err)
		}
		return p
	}

	classes := repro.APEXClasses()
	switch {
	case *sweepBW != "":
		vals, err := cliutil.SweepValues(*sweepBW)
		if err != nil {
			cliutil.Exit("lowerbound", 1, err)
		}
		fmt.Println("bandwidth_gbps\tlambda\tio_fraction\twaste")
		for _, b := range vals {
			sol, err := repro.LowerBound(mk(b, *mtbf), classes)
			if err != nil {
				cliutil.Exit("lowerbound", 1, err)
			}
			fmt.Printf("%g\t%.6g\t%.4f\t%.4f\n", b, sol.Lambda, sol.IOFraction, sol.Waste)
		}
	case *sweepMTBF != "":
		vals, err := cliutil.SweepValues(*sweepMTBF)
		if err != nil {
			cliutil.Exit("lowerbound", 1, err)
		}
		fmt.Println("mtbf_years\tlambda\tio_fraction\twaste")
		for _, y := range vals {
			sol, err := repro.LowerBound(mk(*bw, y), classes)
			if err != nil {
				cliutil.Exit("lowerbound", 1, err)
			}
			fmt.Printf("%g\t%.6g\t%.4f\t%.4f\n", y, sol.Lambda, sol.IOFraction, sol.Waste)
		}
	default:
		p := mk(*bw, *mtbf)
		sol, err := repro.LowerBound(p, classes)
		if err != nil {
			cliutil.Exit("lowerbound", 1, err)
		}
		params, err := repro.InstantiateClasses(p, classes)
		if err != nil {
			cliutil.Exit("lowerbound", 1, err)
		}
		fmt.Printf("platform=%s bandwidth=%s nodeMTBF=%gy systemMTBF=%s\n",
			p.Name, units.FormatBandwidth(p.BandwidthBps), *mtbf, units.FormatDuration(p.SystemMTBF()))
		fmt.Printf("lambda=%.6g ioFraction=%.4f constrained=%v\n", sol.Lambda, sol.IOFraction, sol.Constrained)
		fmt.Printf("platform waste lower bound = %s\n\n", boundLine(sol.Waste))
		fmt.Printf("%-12s %10s %12s %12s %10s\n", "class", "C (s)", "P_Daly (s)", "P_opt (s)", "W_i")
		for i, cp := range params {
			fmt.Printf("%-12s %10.1f %12.1f %12.1f %10.4f\n",
				cp.Name, cp.CkptSeconds(p.BandwidthBps), sol.DalyPeriods[i], sol.Periods[i], sol.PerClassWaste[i])
		}
		if *simulate != "" {
			simulateCheck(p, *simulate, sol.Waste, *runs, *days, *seed)
		}
	}
}

// boundLine renders the steady-state waste bound with its efficiency. A
// waste of 1 or more means the model is saturated — checkpoint I/O and
// re-execution consume the whole platform — so no efficiency is feasible
// and none is printed.
func boundLine(waste float64) string {
	if waste >= 1 {
		return fmt.Sprintf("%.4f (saturated: waste >= 1, no feasible efficiency)", waste)
	}
	return fmt.Sprintf("%.4f (efficiency %.1f%%)", waste, 100*(1-waste))
}

// simulateCheck measures the named strategy's waste with a session
// experiment (cancellable with SIGINT) and prints it next to the
// theoretical bound.
func simulateCheck(p repro.Platform, name string, bound float64, runs int, days float64, seed uint64) {
	strat, ok := repro.StrategyByName(name)
	if !ok {
		cliutil.Exit("lowerbound", 1, fmt.Errorf("unknown strategy %q", name))
	}
	cfg := repro.Config{
		Platform:    p,
		Classes:     repro.APEXClasses(),
		Strategy:    strat,
		Seed:        seed,
		HorizonDays: days,
	}
	ctx, cancel := cliutil.InterruptContext()
	defer cancel()
	mc, err := repro.NewSession().MonteCarlo(ctx, cfg, runs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.ExitInterrupted("lowerbound", err)
		}
		cliutil.Exit("lowerbound", 1, err)
	}
	s := mc.Summary
	fmt.Printf("\nmeasured %s over %d runs: mean=%.4f box=[%.4f %.4f] (bound %.4f, gap %+.4f)\n",
		strat.Name(), runs, s.Mean, s.P25, s.P75, bound, s.Mean-bound)
}
