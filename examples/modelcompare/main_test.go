package main

// Example runs the program and pins its output, so `go test ./...` checks
// what `go run ./examples/modelcompare` prints.
func Example() {
	main()
	// Output:
	// training wmm models...
	// training lm models...
	// training nlm models...
	//
	// Cross-validated runtime prediction error per benchmark (%):
	// app             wmm       lm      nlm
	// blastn          9.4     17.6     11.6
	// blastp         28.3     14.2     10.5
	// compile         5.6     10.1      9.3
	// dedup          11.9     23.8     12.9
	// email          25.0     15.0     10.6
	// freqmine        7.9     14.5     10.4
	// video          18.4     32.1     15.5
	// web            15.7      9.5      7.5
	// MEAN           15.3     17.1     11.0
	//
	// MIBS speedup over FIFO with each model family (16 machines, medium mix):
	//   wmm  speedup 1.302
	//   lm   speedup 1.289
	//   nlm  speedup 1.302
	//   oracle (perfect model) speedup 1.302
}
