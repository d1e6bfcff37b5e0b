package main

// Example runs the program and pins its output, so `go test ./...` checks
// what `go run ./examples/adaptation` prints.
func Example() {
	main()
	// Output:
	// training blastn's interference model on local storage...
	//
	// phase 1: stable environment (co-runs against each benchmark)
	// after 48 observations: recent prediction error 18%, 0 rebuilds
	//
	// phase 2: the storage migrates to iSCSI — how wrong is the stale model?
	// pairing                 stale predict   new measured    error
	// blastn + video                3601 s         4664 s      23%
	// blastn + dedup                2779 s         4878 s      43%
	// blastn + compile              1153 s         4032 s      71%
	// blastn + email                 827 s         2201 s      62%
	//
	// The full shock-and-recovery timeline (errors spiking to ~70% and
	// recovering to ~5% after two rebuilds of the sliding window) is Fig 7:
	//   go run ./cmd/traconbench -only fig7
}
