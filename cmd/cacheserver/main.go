// Command cacheserver runs the shared segment-result cache server
// (internal/cachenet): a sharded, content-addressed, in-memory store that
// any number of stemroot / experiments runs point at with -cacheaddr.
// Concurrent runs and successive sweeps then share one ground-truth pool —
// each overlapping segment is simulated once across the whole fleet.
//
// The server holds nothing sacred: entries are verified on write, evicted
// cost-aware under byte pressure, and lost on restart. Clients re-verify
// every entry and fall back to simulation on any failure, so killing the
// server mid-run only slows the fleet down.
//
// Usage:
//
//	cacheserver [-addr :9736] [-maxmb 1024] [-statsevery 0]
//	cacheserver -cpuprofile cpu.pb.gz -memprofile heap.pb.gz
//
// The profile flags match cmd/stemroot and cmd/experiments: -cpuprofile
// records CPU samples for the whole serve loop, -memprofile writes a heap
// profile at shutdown — the evidence base for sizing -maxmb and for finding
// allocation hot spots under fleet load.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stemroot/internal/cachenet"
	"stemroot/internal/cliopts"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cacheserver: ")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sig, nil); err != nil {
		log.Fatal(err)
	}
}

// run is main with its environment injected: args, the stderr stream, the
// shutdown signal channel, and an optional hook that receives the bound
// listen address (how tests discover a ":0" port).
func run(args []string, stderr io.Writer, shutdown <-chan os.Signal, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("cacheserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9736", "TCP listen address")
	maxMB := fs.Int64("maxmb", 1024, "approximate cache size bound in MiB (<=0: unbounded)")
	statsEvery := fs.Duration("statsevery", 0, "print stats to stderr at this interval (0: only on shutdown)")
	var prof cliopts.Profiles
	prof.Register(fs, "shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := prof.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	maxBytes := *maxMB << 20
	if *maxMB <= 0 {
		maxBytes = -1
	}
	srv := cachenet.NewServer(cachenet.ServerOptions{MaxBytes: maxBytes})

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cacheserver: listening on %s\n", lis.Addr())
	if ready != nil {
		ready(lis.Addr())
	}

	stop := make(chan struct{})
	defer close(stop)
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintf(stderr, "cacheserver: %s\n", srv.Stats())
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		select {
		case s := <-shutdown:
			fmt.Fprintf(stderr, "cacheserver: %v, shutting down\n", s)
			srv.Close()
		case <-stop:
		}
	}()

	if err := srv.Serve(lis); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cacheserver: %s\n", srv.Stats())
	return nil
}
