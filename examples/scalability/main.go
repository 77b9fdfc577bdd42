// Scalability: run the paper's Figure 10 processor sweep — generalized to
// P ∈ {1..64} × vertex orderings × parallel samplers over the synthetic GSE
// networks plus Gnm/R-MAT stress inputs — on the simulated MPI runtime, and
// print the modeled cluster execution times, speedups and efficiency, plus
// this machine's wall-clock time for each goroutine run.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"parsample/internal/experiments"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

func main() {
	ctx := context.Background()
	cfg := experiments.DefaultScalingConfig()

	// The full sweep table, exactly what `experiments -fig scaling` prints.
	rows, err := experiments.Scaling(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	experiments.WriteScaling(os.Stdout, rows)

	// Modeled vs actual: one series re-run with wall-clock timing, to make
	// the point that the modeled seconds are cluster time, not the time the
	// goroutine simulation takes on this machine.
	net := cfg.Networks[0]
	fmt.Printf("\n%s, natural order, chordal-nocomm: modeled cluster time vs this machine\n", net.Name)
	fmt.Printf("%4s  %12s  %10s\n", "P", "modeled(s)", "wall(ms)")
	ord := graph.Order(net.G, graph.Natural, net.Seed)
	for _, p := range cfg.Processors {
		t0 := time.Now()
		res, err := sampling.RunContext(ctx, sampling.ChordalNoComm, net.G, sampling.Options{
			Order: ord, P: p, Seed: net.Seed, Model: &cfg.Model,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %12.4f  %10.2f\n",
			p, cfg.Model.Time(&res.Stats), float64(time.Since(t0).Microseconds())/1000)
	}
}
