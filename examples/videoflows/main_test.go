package main

// Example pins what the program prints, so go test fails when it changes.
func Example() {
	main()
	// Output:
	// # admission on a diamond: direct 0-3 (bandwidth 10) vs 3-hop chain (bandwidth 5)
	// # flow 0->3 wants bandwidth >= 4 and delay <= 2ms (ideal radio: 1ms/hop)
	// converged:                   admitted — 1 hops, path bandwidth 10, path delay 1ms (oracle feasible: true)
	// after FailLink(0,3):         rejected (delay) — 3 hops, path bandwidth 5, path delay 3ms (oracle feasible: false)
	// after RestoreLink(0,3):      admitted — 1 hops, path bandwidth 10, path delay 1ms (oracle feasible: true)
	//
	// # built-in video-vs-cbr (scaled down): bursty video with delay+jitter bounds vs CBR
	// class    flows  admitted  satisfied  violated  c-reject  f-reject  delivery  p95        jitter
	// video    8      8         2          6         0         0         0.789     13.3ms     800µs
	// cbr      8      8         8          0         0         0         0.705     17.6ms     200µs
	// all      16     16        10         6         0         0         0.762     15.7ms     600µs
	// mix violation ratio: 0.375 (admitted flows whose measured QoS broke a bound)
	//   flow 0 (video 34->11): violated
	//   flow 2 (video 29->13): violated
	//   flow 3 (video 41->16): violated
	//   flow 4 (video 6->23): violated
	//   flow 5 (video 26->18): violated
	//   flow 6 (video 10->6): violated
}
