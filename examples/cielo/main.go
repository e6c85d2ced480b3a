// Cielo bandwidth study: a reduced version of the paper's Figure 1. For a
// starved (40 GB/s) and a full (160 GB/s) parallel file system, run a
// Monte-Carlo comparison of all seven scheduling strategies on the APEX
// workload and show candlesticks against the theoretical bound, plus each
// strategy's waste breakdown. Both bandwidth points run through one
// repro.Session, so the second comparison reuses the first one's warm
// simulation arenas.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const runs = 8 // the paper uses 1000; keep the example brisk
	ctx := context.Background()
	session := repro.NewSession(
		repro.WithKeepResults(true), // breakdown() reads per-run results
	)
	for _, bwGBps := range []float64{40, 160} {
		p := repro.Cielo(bwGBps, 2)
		fmt.Printf("=== Cielo at %.0f GB/s, node MTBF 2 years ===\n", bwGBps)
		base := repro.Config{
			Platform:    p,
			Classes:     repro.APEXClasses(),
			Seed:        7,
			HorizonDays: 30,
		}
		results, err := session.Compare(ctx, base, repro.AllStrategies(), runs)
		if err != nil {
			log.Fatal(err)
		}
		for _, mc := range results {
			s := mc.Summary
			fmt.Printf("%-18s mean=%.3f box=[%.3f %.3f] whiskers=[%.3f %.3f]  %s\n",
				mc.Strategy, s.Mean, s.P25, s.P75, s.P10, s.P90, breakdown(mc))
		}
		sol, err := repro.LowerBound(p, base.Classes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s mean=%.3f (Theorem 1 lower bound)\n\n", "Theoretical-Model", sol.Waste)
	}
}

// breakdown renders the dominant waste categories of a strategy.
func breakdown(mc repro.MCResult) string {
	agg := map[string]float64{}
	total := 0.0
	for _, r := range mc.Results {
		for cat, v := range r.WasteByCategory() {
			agg[cat] += v
			total += v
		}
	}
	if total == 0 {
		return ""
	}
	return fmt.Sprintf("[ckpt %.0f%% wait %.0f%% dilation %.0f%% lost %.0f%%]",
		100*agg["checkpoint"]/total, 100*agg["wait"]/total,
		100*agg["dilation"]/total, 100*agg["lost-work"]/total)
}
