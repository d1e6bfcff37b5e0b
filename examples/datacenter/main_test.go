package main

// Example runs the program and pins its output, so `go test ./...` checks
// what `go run ./examples/datacenter` prints.
func Example() {
	main()
	// Output:
	// bringing up TRACON...
	//
	// λ = 5 tasks/minute, medium I/O mix, 64 machines, 4 h
	// sched     completed  mean rt (s)   wait (s)    vs FIFO
	// FIFO           1140         1086          0      1.000
	// MIOSRT         1151          896          0      1.010
	// MIBS8-RT       1148          897         19      1.007
	// MIX8-RT        1152          873         19      1.011
	//
	// λ = 20 tasks/minute, medium I/O mix, 64 machines, 4 h
	// sched     completed  mean rt (s)   wait (s)    vs FIFO
	// FIFO           1400         1234       4367      1.000
	// MIOSRT         1414         1210       4285      1.010
	// MIBS8-RT       1440         1187       4107      1.029
	// MIX8-RT        1444         1187       4135      1.031
	//
	// λ = 60 tasks/minute, medium I/O mix, 64 machines, 4 h
	// sched     completed  mean rt (s)   wait (s)    vs FIFO
	// FIFO           1398         1238       5663      1.000
	// MIOSRT         1411         1234       5624      1.009
	// MIBS8-RT       1486         1183       5560      1.063
	// MIX8-RT        1477         1173       5518      1.057
	//
	// At low λ the cluster is mostly idle and every policy looks like FIFO;
	// as λ saturates the disks, the interference-aware batch schedulers pull ahead.
}
