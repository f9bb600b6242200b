package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// deployed 77 nodes with 292 links
	// node 0 has 7 one-hop and 12 two-hop neighbors
	// FNBP advertises only 2 of them: [22 38]
	// network-wide: 1.62 advertised neighbors per node
	// advertised topology: 79 of 292 physical links
	// route 74 -> 50: bandwidth 6.0 over 7 hops (optimum 6.0, overhead 0.0%)
	// density 8: fnbp advertises 1.66 neighbors/node
	// density 12: fnbp advertises 1.71 neighbors/node
}
