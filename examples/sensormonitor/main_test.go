package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// sensor field: 71 nodes, 236 links; sink = node 0
	// protocol ran 45s: 1595 HELLOs, 23241 TCs, 27466 control bytes/s
	// readings: 70 delivered, 0 failed, 0 physically unreachable
	// bandwidth overhead vs centralized optimum: mean 0.00%, worst 0.00%
}
