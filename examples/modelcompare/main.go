// Modelcompare: the paper's model bake-off (Fig 3 / Fig 4) through the
// public API. Trains the weighted mean method, the linear model and the
// nonlinear model on identical profiles, compares their cross-validated
// prediction errors, and shows how model quality translates into
// scheduling quality.
//
//	go run ./examples/modelcompare
package main

import (
	"fmt"
	"log"

	"tracon"
)

func main() {
	log.SetFlags(0)

	kinds := []tracon.ModelKind{tracon.WMM, tracon.LM, tracon.NLM}
	systems := map[tracon.ModelKind]*tracon.System{}
	for _, k := range kinds {
		sys, err := tracon.New(tracon.Config{Model: k})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("training %s models...\n", k)
		if err := sys.RegisterBenchmarks(); err != nil {
			log.Fatal(err)
		}
		systems[k] = sys
	}

	fmt.Printf("\nCross-validated runtime prediction error per benchmark (%%):\n")
	fmt.Printf("%-10s", "app")
	for _, k := range kinds {
		fmt.Printf(" %8s", k)
	}
	fmt.Println()
	apps := systems[tracon.NLM].Apps()
	means := map[tracon.ModelKind]float64{}
	for _, app := range apps {
		fmt.Printf("%-10s", app)
		for _, k := range kinds {
			m, _, err := systems[k].ModelError(app, tracon.MinRuntime)
			if err != nil {
				log.Fatal(err)
			}
			means[k] += m
			fmt.Printf("    %5.1f", m*100)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "MEAN")
	for _, k := range kinds {
		fmt.Printf("    %5.1f", means[k]/float64(len(apps))*100)
	}
	fmt.Println()

	// Model quality → scheduling quality: the same batch scheduled by MIBS
	// with each model family, normalized to FIFO.
	fmt.Println("\nMIBS speedup over FIFO with each model family (16 machines, medium mix):")
	for _, k := range kinds {
		sys := systems[k]
		fifo, err := sys.RunStatic(tracon.Policy{Name: "fifo"}, 16, nil)
		if err != nil {
			log.Fatal(err)
		}
		mibs, err := sys.RunStatic(tracon.Policy{Name: "mibs"}, 16, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s speedup %.3f\n", k, tracon.Speedup(fifo, mibs))
	}

	// The ground-truth upper bound: what a perfect model would achieve.
	sys := systems[tracon.NLM]
	fifo, err := sys.RunStatic(tracon.Policy{Name: "fifo"}, 16, nil)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := sys.RunStatic(tracon.Policy{Name: "mibs", Oracle: true}, 16, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  oracle (perfect model) speedup %.3f\n", tracon.Speedup(fifo, oracle))
}
