package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// # custom grid-link-flap, streamed
	// t_s   delivery  links  ctrlB/s
	// 16    0.88      17     1070
	// 18    0.88      17     754
	// 20    0.88      17     1263
	// 22    0.88      17     910
	// 24    0.88      17     1090
	// 26    0.75      15     1059
	// 28    0.75      15     958
	// 30    0.75      15     1224
	// 32    0.75      15     832
	// 34    0.75      15     1406
	// 36    0.75      15     1496
	// 38    0.75      15     887
	// 40    0.75      17     1285
	// 42    0.75      17     1011
	// 44    0.88      17     1388
	// 46    0.88      17     1388
	// 48    0.88      17     958
	// 50    0.88      17     1224
	// fail-random 2 @25s: never recovered
	// restore-all @40s: recovered in 0s
	//
	// # built-in partition-heal (scaled down), fnbp vs qolsr
	// selector    min-delivery  final-delivery  heal-time
	// fnbp        0.58          1.00            8s
	// qolsr       0.58          0.90            4s
}
