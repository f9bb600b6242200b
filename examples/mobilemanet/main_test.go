package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// 30 nodes on a 350x350 field, R=100, 2m0s per speed setting
	//
	// speed(u/s)  link-freshness  routed-frac  rebuilds
	// 2           0.92            1.00         120
	// 8           0.82            0.97         120
	// 20          0.70            0.83         120
	//
	// link-freshness: fraction of protocol-known links that are physically
	// current; routed-frac: reachable destinations with a route at node 0.
}
