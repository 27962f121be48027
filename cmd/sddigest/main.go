// Command sddigest runs the online half of SyslogDigest: it reads a learned
// knowledge base and a syslog stream and prints prioritized event digests,
// one line per event:
//
//	start|end|locations|label|N msgs
//
// Usage:
//
//	sddigest -kb kb.json -syslog live.log [-top 20] [-stage T+R+C] [-raw]
//	         [-metrics 127.0.0.1:9090] [-stream [-speed 3600] [-checkpoint f]]
//
// -raw additionally prints each event's raw message indices so the original
// lines can be retrieved (the paper's index field).
//
// -stream pushes the messages through the incremental streaming engine one
// at a time and prints events in closure order — the order a live feed
// would have surfaced them — instead of batch rank order. The event set is
// identical to the batch digest. -top and -show need the ranked batch and
// are rejected with -stream; -json emits newline-delimited JSON either way.
//
// -speed N paces the replay at N log seconds per wall second. -checkpoint
// makes it resumable: the state is snapshotted every -checkpoint-interval
// and once the replay completes, and a restarted run restores it and skips
// the messages already pushed, printing each event once across restarts.
// The streaming flags are refused without -stream.
//
// -provisional (with -stream) turns on two-tier emission: each group also
// prints a tagged provisional line shortly after the given log-time horizon
// passes its birth, then revised/superseded lines as it grows or merges,
// and a final line at closure. The untagged final stream is unchanged. With
// -json the tier records are JSON objects too (they carry "status").
//
// -metrics starts an HTTP exporter serving /metrics (pipeline counters and
// stage-latency histograms as JSON) and /healthz (503 until the knowledge
// base is loaded). With -metrics set, sddigest keeps serving after the
// digest is printed until interrupted, so the final counters can be
// scraped.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"syslogdigest"
	"syslogdigest/internal/event"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/streamrun"
	"syslogdigest/internal/syslogmsg"
)

func main() {
	var (
		kbPath      = flag.String("kb", "kb.json", "knowledge-base JSON from sdlearn")
		syslogPath  = flag.String("syslog", "", "syslog file or glob to digest (required)")
		top         = flag.Int("top", 0, "print only the top N events (0 = all)")
		stageFlag   = flag.String("stage", "T+R+C", "grouping stages: T, T+R, or T+R+C")
		raw         = flag.Bool("raw", false, "print raw message indices per event")
		show        = flag.Int("show", 0, "print up to N raw syslog lines per event (drill-down)")
		asJSON      = flag.Bool("json", false, "emit newline-delimited JSON instead of digest lines")
		streaming   = flag.Bool("stream", false, "drive the incremental engine; print events in closure order")
		provisional = flag.Duration("provisional", 0, "two-tier emission horizon (with -stream): print provisional/revised/superseded lines this much log time after group birth (0 disables; the final stream is identical at any setting)")
		metricsAddr = flag.String("metrics", "", "serve /metrics and /healthz on this address ('' disables)")
		streamWorks = flag.Int("stream-workers", 0, "streaming-engine shard workers (with -stream; <= 1 = serial engine, N > 1 = router-sharded engine; output is identical at any setting)")
		shardAddrs  = flag.String("shards", "", "comma-separated sdshard addresses (with -stream): distribute the engine's shards across processes over the wire protocol (one shard per entry; output is identical at any setting; overrides -stream-workers)")
		matchCache  = flag.Int("match-cache", 0, "match-cache entries (0 = default, negative = disabled; output is identical at any setting)")
		speed       = flag.Float64("speed", 0, "log seconds per wall second (with -stream; 0 = no pacing)")
		ckptPath    = flag.String("checkpoint", "", "checkpoint file (with -stream): restore streaming state from it on start, skipping the messages the snapshotted run already pushed, and snapshot into it periodically")
		ckptEvery   = flag.Duration("checkpoint-interval", 30*time.Second, "how often to write the checkpoint (with -checkpoint)")
	)
	flag.Parse()
	if *syslogPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if !*streaming {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "stream-workers", "shards", "provisional", "speed", "checkpoint", "checkpoint-interval":
				fatalf("-%s requires -stream (a batch digest groups the whole file in-process, on the serial engine)", f.Name)
			}
		})
	}

	var (
		reg    *obs.Registry
		health *obs.Health
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.PublishRuntime(reg)
		health = obs.NewHealth(0)
		srv, err := obs.Serve(*metricsAddr, reg, health)
		if err != nil {
			fatalf("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sddigest: metrics on http://%s/metrics\n", srv.Addr())
	}

	kb, err := streamrun.LoadKB(*kbPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *matchCache != 0 {
		kb.SetMatchCache(*matchCache)
	}
	health.SetReady(true)

	msgs, err := syslogmsg.ReadGlob(*syslogPath)
	if err != nil {
		fatalf("read syslog: %v", err)
	}

	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		fatalf("digester: %v", err)
	}
	d.Instrument(reg)
	switch strings.ToUpper(*stageFlag) {
	case "T":
		d.SetStage(syslogdigest.StageTemporal)
	case "T+R":
		d.SetStage(syslogdigest.StageTemporalRules)
	case "T+R+C":
		d.SetStage(syslogdigest.StageFull)
	default:
		fatalf("unknown -stage %q (want T, T+R, or T+R+C)", *stageFlag)
	}

	if *streaming {
		if *top != 0 || *show != 0 {
			fatalf("-top and -show require the batch digest (closure order has no rank to cut, and -stream keeps no message store)")
		}
		st, restored, err := streamrun.Open(d, syslogdigest.StreamerOptions{
			StreamWorkers:      *streamWorks,
			ShardAddrs:         streamrun.SplitAddrs(*shardAddrs),
			ProvisionalHorizon: *provisional,
		}, *ckptPath)
		if err != nil {
			fatalf("%v", err)
		}
		st.Instrument(reg)
		streamDigest(st, restored, msgs, streamrun.ReplayOptions{
			Speed: *speed, CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery,
		}, &streamrun.Printer{W: os.Stdout, JSON: *asJSON, Raw: *raw})
		waitIfServing(*metricsAddr)
		return
	}

	res, err := d.Digest(msgs)
	if err != nil {
		fatalf("digest: %v", err)
	}
	var store *syslogmsg.Store
	if *show > 0 {
		store, err = syslogmsg.NewStore(msgs)
		if err != nil {
			fatalf("index store: %v", err)
		}
	}
	n := len(res.Events)
	if *top > 0 && *top < n {
		n = *top
	}
	if *asJSON {
		if err := event.WriteJSON(os.Stdout, res.Events[:n]); err != nil {
			fatalf("write json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "%d messages -> %d events (compression ratio %.3e)\n",
			len(msgs), len(res.Events), res.CompressionRatio())
		waitIfServing(*metricsAddr)
		return
	}
	for _, e := range res.Events[:n] {
		fmt.Println(e.Digest())
		if *raw {
			fmt.Printf("  raw indices: %v\n", e.RawIndexes)
		}
		if store != nil {
			lines := store.GetAll(e.RawIndexes)
			for i, m := range lines {
				if i == *show {
					fmt.Printf("  ... %d more\n", len(lines)-*show)
					break
				}
				fmt.Printf("  %s\n", m.Format())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d messages -> %d events (compression ratio %.3e)\n",
		len(msgs), len(res.Events), res.CompressionRatio())
	waitIfServing(*metricsAddr)
}

// streamDigest sorts the corpus by time and replays it through the
// incremental engine, printing each event the moment the watermark closes
// it. A restored streamer resumes after the messages it has pushed.
func streamDigest(st *syslogdigest.Streamer, restored bool, msgs []syslogmsg.Message, o streamrun.ReplayOptions, out *streamrun.Printer) {
	sort.SliceStable(msgs, func(i, j int) bool { return syslogmsg.SortByTime(&msgs[i], &msgs[j]) })
	skip := 0
	if restored {
		if skip = int(st.Pushed()); skip > len(msgs) {
			fatalf("checkpoint %s is ahead of the stream: %d pushed, %d messages", o.CheckpointPath, skip, len(msgs))
		}
		fmt.Fprintf(os.Stderr, "sddigest: restored checkpoint %s, resuming at message %d\n", o.CheckpointPath, skip)
	}
	if err := streamrun.Replay(st, msgs, o, out.Print); err != nil {
		fatalf("%v", err)
	}
	tier := ""
	if out.Updates > 0 {
		tier = fmt.Sprintf("; %d provisional-tier lines", out.Updates)
	}
	fmt.Fprintf(os.Stderr, "%d messages -> %d events (streamed, closure order%s)\n", len(msgs)-skip, out.Events, tier)
}

// waitIfServing blocks until interrupt when the metrics exporter is up, so
// the post-run counters remain scrapeable.
func waitIfServing(addr string) {
	if addr == "" {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintln(os.Stderr, "sddigest: digest done; serving metrics until interrupted (Ctrl-C to exit)")
	<-sig
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sddigest: "+format+"\n", args...)
	os.Exit(1)
}
