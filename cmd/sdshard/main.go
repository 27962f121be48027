// Command sdshard hosts remote shards of the cluster streaming engine: the
// worker-process half of the shard wire protocol. It loads the same learned
// knowledge base as the dispatcher (the fingerprints must match — the
// handshake rejects a stale copy), listens for shard sessions, and runs one
// grouping.RouterLocal per connection. The dispatcher (sdcollect, sdreplay,
// or sddigest with -shards) opens one connection per shard, so pointing
// several -shards entries at one sdshard hosts that many shards in this
// process.
//
// Usage:
//
//	sdshard -kb kb.json -listen 127.0.0.1:7600
//	sdshard -kb kb.json -listen :0 -metrics 127.0.0.1:9091
//
// The first stdout line is "listening ADDR" (useful with -listen :0, where
// the kernel picks the port). Session state lives and dies with its
// connection: a dispatcher that reconnects re-seeds the replacement session
// from its own replay log, so an sdshard restart loses nothing. -metrics
// serves /metrics, /healthz, and /debug/pprof/ for the shard process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"syslogdigest"
	"syslogdigest/internal/cluster"
	"syslogdigest/internal/obs"
)

func main() {
	var (
		kbPath      = flag.String("kb", "", "learned knowledge base (required; must match the dispatcher's)")
		listenAddr  = flag.String("listen", "127.0.0.1:0", "shard protocol listen address (port 0 = ephemeral, printed on stdout)")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /healthz, and /debug/pprof/ on this address ('' disables)")
		quiet       = flag.Bool("quiet", false, "suppress session lifecycle log lines")
	)
	flag.Parse()
	if *kbPath == "" {
		fmt.Fprintln(os.Stderr, "sdshard: need -kb")
		flag.Usage()
		os.Exit(2)
	}

	kf, err := os.Open(*kbPath)
	if err != nil {
		fatalf("open: %v", err)
	}
	kb, err := syslogdigest.LoadKnowledgeBase(kf)
	kf.Close()
	if err != nil {
		fatalf("load kb: %v", err)
	}

	reg := obs.NewRegistry()
	cfg := cluster.ServerConfig{
		Dict:  kb.Dictionary(),
		Rules: kb.RuleBase,
		Metrics: cluster.ServerMetrics{
			Connections:    reg.Counter("shard.connections"),
			Batches:        reg.Counter("shard.batches"),
			Messages:       reg.Counter("shard.messages"),
			BytesIn:        reg.Counter("shard.bytes_in"),
			BytesOut:       reg.Counter("shard.bytes_out"),
			StateSnapshots: reg.Counter("shard.state_snapshots"),
			Restores:       reg.Counter("shard.restores"),
		},
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv, err := cluster.Serve(*listenAddr, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *metricsAddr != "" {
		health := obs.NewHealth(0)
		health.SetReady(true)
		ms, err := obs.Serve(*metricsAddr, reg, health)
		if err != nil {
			fatalf("metrics: %v", err)
		}
		defer ms.Close()
		log.Printf("sdshard: metrics on http://%s/metrics", ms.Addr())
	}

	// The dispatcher discovers an ephemeral port from this line, and may
	// interrupt the shard as soon as it has read it: the handler goes in
	// first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("listening %s\n", srv.Addr())
	log.Printf("sdshard: serving shards on %s (kb %s)", srv.Addr(), cluster.Fingerprint(kb.Dictionary(), kb.RuleBase))
	<-sig
	log.Printf("sdshard: shutting down")
	srv.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdshard: "+format+"\n", args...)
	os.Exit(1)
}
