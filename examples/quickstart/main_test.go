package main

// Example runs the program and pins its output, so `go test ./...` checks
// what `go run ./examples/quickstart` prints.
func Example() {
	main()
	// Output:
	// profiling the eight Table 3 benchmarks (takes a second or two)...
	//
	// blastn solo:               795 s
	// blastn next to video:     3601 s  (4.5x — avoid this pairing)
	// blastn next to email:      827 s  (1.0x — a good neighbour)
	//
	// FIFO   total runtime:   21268 s, total IOPS:  1514.6
	// MIBS   total runtime:   18148 s, total IOPS:  2010.1
	// Speedup over FIFO: 1.172
}
