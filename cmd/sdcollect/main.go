// Command sdcollect is a live syslog collector wired to the online
// digester: routers (or a replay tool) send syslog over UDP/TCP in RFC
// 3164, RFC 5424, or the repository line format; sdcollect feeds each
// message straight into the incremental streaming engine and prints every
// event the moment the engine's watermark proves it complete — no
// micro-batching, no flush-interval latency floor.
//
// Usage:
//
//	sdcollect -kb kb.json -udp :5514 -tcp :5514 [-reorder 2s] [-idle 30s]
//	          [-metrics 127.0.0.1:9090] [-checkpoint state.ckpt]
//
// -reorder sets the reorder-buffer tolerance: arrivals out of time order by
// less than this are sorted into place; older stragglers are dropped and
// counted (stream.dropped.late when the sender lagged beyond the tolerance,
// stream.dropped.overflow when an undersized buffer forced the frontier
// forward early). -idle bounds quiet-feed latency: when no message arrives
// for an interval and groups are still open, the engine is drained so the
// tail events print. -idle and -checkpoint-interval must be positive.
//
// -provisional turns on two-tier emission: besides the final closure lines,
// each open group prints a tagged provisional line once the given log-time
// horizon passes its birth, then revised/superseded lines as it grows or
// merges. First signal arrives in seconds instead of the hours-scale
// closure horizon; the final stream is unchanged.
//
// -checkpoint makes the streaming state durable: the file is written
// atomically every -checkpoint-interval and on shutdown, and restored on
// the next start, so a restarted collector resumes mid-stream — open
// groups, temporal models, and the reorder buffer survive, and each event
// is emitted exactly once across the restart.
//
// -metrics starts an HTTP exporter: /metrics serves every pipeline counter
// (collector.* per transport, stream.*, group.merges.*) as JSON; /healthz
// reports readiness (knowledge base loaded) and liveness (the idle loop
// has run within 3 intervals) — 503 otherwise.
//
// Try it against a generated dataset:
//
//	sdgen -kind A -out ds && sdlearn -syslog ds/syslog.log -configs ds/configs -kb kb.json
//	sdcollect -kb kb.json -udp 127.0.0.1:5514 &
//	sdreplay -syslog ds/syslog.log -udp 127.0.0.1:5514
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"syslogdigest"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/streamrun"
)

func main() {
	var (
		kbPath      = flag.String("kb", "kb.json", "knowledge-base JSON from sdlearn")
		udpAddr     = flag.String("udp", "127.0.0.1:5514", "UDP listen address ('' disables)")
		tcpAddr     = flag.String("tcp", "", "TCP listen address ('' disables)")
		reorder     = flag.Duration("reorder", 0, "reorder-buffer tolerance (0 = default 2s, negative = strict arrival order)")
		idle        = flag.Duration("idle", 30*time.Second, "drain open groups after this much feed silence")
		year        = flag.Int("year", 0, "year for RFC3164 timestamps (0 = the year that puts each timestamp nearest the clock)")
		verbose     = flag.Bool("v", false, "log parse errors to stderr")
		metricsAddr = flag.String("metrics", "", "serve /metrics and /healthz on this address ('' disables)")
		streamWorks = flag.Int("stream-workers", 0, "streaming-engine shard workers (<= 1 = serial engine, N > 1 = router-sharded engine; output is identical at any setting)")
		shardAddrs  = flag.String("shards", "", "comma-separated sdshard addresses: distribute the engine's shards across processes over the wire protocol (one shard per entry; repeat an address to host several shards in one process; output is identical at any setting; overrides -stream-workers)")
		provisional = flag.Duration("provisional", 0, "two-tier emission horizon: print provisional/revised/superseded lines this much log time after group birth (0 disables; the final stream is identical at any setting)")
		ckptPath    = flag.String("checkpoint", "", "checkpoint file: restore streaming state from it on start (if present) and snapshot into it periodically ('' disables)")
		ckptEvery   = flag.Duration("checkpoint-interval", time.Minute, "how often to write the checkpoint (with -checkpoint)")
	)
	flag.Parse()
	if *idle <= 0 {
		fatalf("-idle %s: must be positive", *idle)
	}
	if *ckptEvery <= 0 {
		fatalf("-checkpoint-interval %s: must be positive", *ckptEvery)
	}

	var (
		reg    *obs.Registry
		health *obs.Health
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.PublishRuntime(reg)
		health = obs.NewHealth(3 * *idle)
		srv, err := obs.Serve(*metricsAddr, reg, health)
		if err != nil {
			fatalf("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sdcollect: metrics on http://%s/metrics\n", srv.Addr())
	}

	kb, err := streamrun.LoadKB(*kbPath)
	if err != nil {
		fatalf("%v", err)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		fatalf("digester: %v", err)
	}
	d.Instrument(reg)
	health.SetReady(true)

	st, restored, err := streamrun.Open(d, syslogdigest.StreamerOptions{
		ReorderTolerance:   *reorder,
		StreamWorkers:      *streamWorks,
		ShardAddrs:         streamrun.SplitAddrs(*shardAddrs),
		ProvisionalHorizon: *provisional,
	}, *ckptPath)
	if err != nil {
		fatalf("%v", err)
	}
	if restored {
		fmt.Fprintf(os.Stderr, "sdcollect: restored checkpoint %s (watermark %s)\n",
			*ckptPath, st.Watermark().Format(time.RFC3339))
	}
	st.Instrument(reg)

	logErr := func(err error) { fmt.Fprintln(os.Stderr, "sdcollect:", err) }
	cfg := collector.Config{UDPAddr: *udpAddr, TCPAddr: *tcpAddr, Year: *year, Metrics: reg}
	if *verbose {
		cfg.OnError = logErr
	}
	out := streamrun.Printer{W: os.Stdout}
	live, err := streamrun.StartLive(st, cfg, streamrun.LiveOptions{
		Idle:            *idle,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Health:          health,
		OnError:         logErr,
	}, out.Print)
	if err != nil {
		fatalf("%v", err)
	}
	// Whoever reads a listening line may interrupt at once, so the handler
	// is in place before the lines are printed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if a := live.UDPAddr(); a != nil {
		fmt.Fprintf(os.Stderr, "sdcollect: listening udp %s\n", a)
	}
	if a := live.TCPAddr(); a != nil {
		fmt.Fprintf(os.Stderr, "sdcollect: listening tcp %s\n", a)
	}
	<-sig
	live.Close()
	cst := live.Stats()
	fmt.Fprintf(os.Stderr, "sdcollect: received %d, dropped %d, truncated %d, oversized %d, conns %d\n",
		cst.Received, cst.Dropped, cst.Truncated, cst.Oversized, cst.Conns)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdcollect: "+format+"\n", args...)
	os.Exit(1)
}
