package main

// Example runs the program and pins its output, so `go test ./...` checks
// what `go run ./examples/workflow` prints.
func Example() {
	main()
	// Output:
	// bringing up TRACON...
	//
	// 12 workflow stages on 4 machines (8 VMs)
	//
	// scheduler    makespan (s)    total runtime  mean wait (s)
	// FIFO                 8129            21224              0
	// MIOSRT               3169            11392              0
	// MIBS12-RT            2969            12018             30
	//
	// MIBS vs FIFO: makespan 2.74x faster, total runtime speedup 1.766
}
