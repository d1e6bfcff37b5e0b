// Quickstart: bring up TRACON, ask the interference models questions, and
// schedule one batch of data-intensive tasks with and without
// interference awareness.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tracon"
)

func main() {
	log.SetFlags(0)

	// One call builds the whole system: the simulated Xen testbed, the
	// profiling run (8 benchmarks × 125 synthetic workloads) and the
	// nonlinear interference models the paper recommends.
	sys, err := tracon.New(tracon.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profiling the eight Table 3 benchmarks (takes a second or two)...")
	if err := sys.RegisterBenchmarks(); err != nil {
		log.Fatal(err)
	}

	// Question 1: how long does a DNA search take alone, and how long next
	// to a video encoder hammering the same disk?
	solo, err := sys.SoloRuntime("blastn")
	if err != nil {
		log.Fatal(err)
	}
	withVideo, err := sys.PredictRuntime("blastn", "video")
	if err != nil {
		log.Fatal(err)
	}
	withEmail, err := sys.PredictRuntime("blastn", "email")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nblastn solo:            %6.0f s\n", solo)
	fmt.Printf("blastn next to video:   %6.0f s  (%.1fx — avoid this pairing)\n", withVideo, withVideo/solo)
	fmt.Printf("blastn next to email:   %6.0f s  (%.1fx — a good neighbour)\n", withEmail, withEmail/solo)

	// Question 2: does interference-aware batch scheduling beat FIFO on a
	// small cluster? 16 tasks drawn from the paper's medium I/O mix onto 8
	// machines (two VMs each).
	fifo, err := sys.RunStatic(tracon.Policy{Name: "fifo"}, 8, nil)
	if err != nil {
		log.Fatal(err)
	}
	mibs, err := sys.RunStatic(tracon.Policy{Name: "mibs"}, 8, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFIFO   total runtime: %7.0f s, total IOPS: %7.1f\n", fifo.TotalRuntime, fifo.TotalIOPS)
	fmt.Printf("MIBS   total runtime: %7.0f s, total IOPS: %7.1f\n", mibs.TotalRuntime, mibs.TotalIOPS)
	fmt.Printf("Speedup over FIFO: %.3f\n", tracon.Speedup(fifo, mibs))
	fmt.Printf("IOBoost over FIFO: %.3f\n", tracon.IOBoost(fifo, mibs))
}
