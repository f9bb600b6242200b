// Command qolsr-node runs one QOLSR daemon over real UDP: the same
// HELLO/TC protocol engine the simulator drives, here driven by wall-clock
// timers and a bound socket. Peers are declared statically (the peer table
// stands in for radio range); link delay is measured live from HELLO
// round-trip timestamps unless -measured=false selects the declared oracle
// weights instead.
//
// Usage:
//
//	qolsr-node -id 1 -listen 127.0.0.1:9001 \
//	    -peers 2@127.0.0.1:9002,3@127.0.0.1:9003 \
//	    -status 127.0.0.1:8001
//
// The -status endpoint serves the daemon's neighbors, MPR set, routing
// table and traffic counters as JSON on /status, and the same counters in
// Prometheus text format on /metrics; it binds loopback only. -pprof
// additionally mounts net/http/pprof profiling on the same listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/metric"
	"qolsr/internal/node"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qolsr-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id         = flag.Int64("id", 0, "node identifier, unique across the mesh (required)")
		listen     = flag.String("listen", "127.0.0.1:0", "UDP address to bind")
		peersFlag  = flag.String("peers", "", `static peer list: "id@host:port" entries, comma-separated, optional "#weight" suffix`)
		peersFile  = flag.String("peers-file", "", `JSON peer table: [{"id":2,"addr":"127.0.0.1:9002","weight":1}, ...]`)
		hello      = flag.Duration("hello", 2*time.Second, "HELLO emission interval; a neighbourhood change sends one early, but never within a quarter interval of the last")
		tc         = flag.Duration("tc", 5*time.Second, "TC emission interval; a neighbourhood change sends one early, but never within a quarter interval of the last")
		measured   = flag.Bool("measured", true, "measure link delay from HELLO round trips (false: use declared peer weights)")
		metricName = flag.String("metric", "delay", "QoS metric: bandwidth, delay, hop or energy")
		selName    = flag.String("selector", "fnbp", "advertised-set selector: fnbp, topofilter, qolsr, full")
		statusAddr = flag.String("status", "", "loopback address for the HTTP status endpoint (e.g. 127.0.0.1:8001); empty disables it")
		pprofFlag  = flag.Bool("pprof", false, "with -status, also serve net/http/pprof under /debug/pprof/ on the status listener")
		ttl        = flag.Uint("ttl", 32, "initial TTL of originated data packets")
		verbose    = flag.Bool("v", false, "log protocol events")
	)
	flag.Parse()

	if *id <= 0 {
		return errors.New("-id is required and must be positive")
	}
	m, err := metric.ByName(*metricName)
	if err != nil {
		return err
	}
	sel, err := core.ByName(*selName)
	if err != nil {
		return err
	}
	if *ttl == 0 || *ttl > 255 {
		return fmt.Errorf("-ttl %d out of range [1,255]", *ttl)
	}

	var peers []node.Peer
	if *peersFile != "" {
		if peers, err = node.ReadPeersFile(*peersFile); err != nil {
			return err
		}
	}
	if *peersFlag != "" {
		extra, err := node.ParsePeerList(*peersFlag)
		if err != nil {
			return err
		}
		peers = append(peers, extra...)
	}
	if len(peers) == 0 {
		return errors.New("no peers: pass -peers and/or -peers-file")
	}

	tr, err := node.ListenUDP(*listen)
	if err != nil {
		return err
	}

	cfg := node.Config{
		ID:            *id,
		Transport:     tr,
		Peers:         peers,
		HelloInterval: *hello,
		TCInterval:    *tc,
		Metric:        m,
		Selector:      sel,
		Measured:      *measured,
		TTL:           uint8(*ttl),
	}
	if *verbose {
		logger := log.New(os.Stderr, fmt.Sprintf("node %d: ", *id), log.Ltime|log.Lmicroseconds)
		cfg.Logf = logger.Printf
	}
	d, err := node.New(cfg)
	if err != nil {
		tr.Close()
		return err
	}

	mode := "oracle"
	if *measured {
		mode = "measured"
	}
	log.Printf("qolsr-node %d listening on %s (%s mode, metric %s, selector %s, %d peers)",
		*id, tr.LocalAddr(), mode, m.Name(), sel.Name(), len(peers))

	if *statusAddr != "" {
		ln, err := listenLoopback(*statusAddr)
		if err != nil {
			tr.Close()
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/", d.StatusHandler())
		if *pprofFlag {
			// Explicit registrations, not DefaultServeMux: the profiling
			// surface exists only when asked for, only on this loopback
			// listener.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		log.Printf("status endpoint on http://%s/status (metrics on /metrics)", ln.Addr())
		if *pprofFlag {
			log.Printf("pprof endpoint on http://%s/debug/pprof/", ln.Addr())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d.Run(ctx)
	log.Printf("qolsr-node %d stopped", *id)
	return nil
}

// listenLoopback binds a TCP listener and refuses non-loopback addresses:
// the status report is operator introspection, not a public API.
func listenLoopback(addr string) (net.Listener, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status address %q: %w", addr, err)
	}
	if ta.IP != nil && !ta.IP.IsLoopback() {
		return nil, fmt.Errorf("status address %q is not loopback; the endpoint is local introspection only", addr)
	}
	if ta.IP == nil {
		ta.IP = net.IPv4(127, 0, 0, 1)
	}
	return net.ListenTCP("tcp", ta)
}
