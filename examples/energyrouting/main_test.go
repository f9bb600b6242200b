package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// fields: 15, nodes: 1406, routed pairs: 252 (target degree 12)
	// bandwidth-only FNBP:   1.62 advertised links/node
	// bandwidth+energy FNBP: 2.35 advertised links/node
	// routes over bandwidth-only topology:   bandwidth 7.28, energy 5.78
	// routes over bandwidth+energy topology: bandwidth 7.66, energy 4.61
	// route energy saved at matched bandwidth: 20.3%
}
