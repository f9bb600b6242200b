package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// # two nodes, 25% loss, measured link quality (want ratio ~0.75, ETX ~1.78)
	// t_s   ratio0->1  etx0->1
	// 20    0.75       1.78
	// 40    0.88       1.41
	// 60    0.75       1.78
	// 80    0.62       1.83
	// 100   0.75       1.52
	// 120   0.81       1.51
	//
	// # built-in lossy-degrade (scaled down): 5% -> 35% @35s -> 5% @60s
	// t_s   delivery
	// 20    0.50
	// 22    0.60
	// 24    0.80
	// 26    0.80
	// 28    0.80
	// 30    0.70
	// 32    0.50
	// 34    0.50
	// 36    0.10
	// 38    0.10
	// 40    0.00
	// 42    0.00
	// 44    0.20
	// 46    0.00
	// 48    0.10
	// 50    0.00
	// 52    0.10
	// 54    0.30
	// 56    0.10
	// 58    0.10
	// 60    0.50
	// 62    0.40
	// 64    0.30
	// 66    0.60
	// 68    0.80
	// 70    0.70
	// 72    0.30
	// 74    0.60
	// 76    0.60
	// 78    0.80
	// 80    0.70
	// totals: 310 data packets sent, 126 delivered, 152 lost in flight, 31 unroutable
	// set-loss 0.35 @35s: never recovered
	// set-loss 0.05 @60s: recovered in 0s
}
