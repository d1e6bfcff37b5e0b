package tracon_test

import (
	"bytes"
	"fmt"
	"log"

	"tracon"
)

// A custom application is profiled and modelled like a built-in benchmark,
// and its trained model can be saved and later served again.
func ExampleSystem_RegisterApp() {
	sys, err := tracon.New(tracon.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterBenchmarks(); err != nil {
		log.Fatal(err)
	}
	err = sys.RegisterApp(tracon.App{
		Name: "etl", CPUSeconds: 100,
		ReadOps: 50000, WriteOps: 20000, ReqSizeKB: 32, Seq: 0.7, IODepth: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, co := range []string{"", "email", "video"} { // "" is an idle neighbour
		rt, err := sys.PredictRuntime("etl", co)
		if err != nil {
			log.Fatal(err)
		}
		iops, err := sys.PredictIOPS("etl", co)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("etl beside %-7q %5.0f s %5.1f IOPS\n", co, rt, iops)
	}

	// Save the model, then serve the saved copy: predictions are unchanged.
	var buf bytes.Buffer
	if err := sys.SaveModel("etl", &buf); err != nil {
		log.Fatal(err)
	}
	before, _ := sys.PredictRuntime("etl", "video")
	if err := sys.LoadModel(&buf); err != nil {
		log.Fatal(err)
	}
	after, _ := sys.PredictRuntime("etl", "video")
	fmt.Println("reloaded model predicts the same:", before == after)
	// Output:
	// etl beside ""        412 s  86.3 IOPS
	// etl beside "email"   422 s  84.8 IOPS
	// etl beside "video"  1125 s  63.3 IOPS
	// reloaded model predicts the same: true
}
