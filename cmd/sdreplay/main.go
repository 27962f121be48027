// Command sdreplay streams a serialized syslog file to a collector over the
// network, preserving relative message timing with optional compression —
// the testing companion to cmd/sdcollect. With -kb and no destination it
// instead drives the incremental streaming engine in-process, printing each
// event at its closure time: a paced, local rehearsal of the live pipeline.
//
// Usage:
//
//	sdreplay -syslog ds/syslog.log -udp 127.0.0.1:5514 -speed 600
//	sdreplay -syslog ds/syslog.log -tcp 127.0.0.1:5514 -format rfc3164
//	sdreplay -syslog ds/syslog.log -kb kb.json -speed 3600
//
// -speed N plays N seconds of log time per wall-clock second (0 = as fast
// as possible). -format selects the wire framing: line (the repository
// format), rfc3164, or rfc5424.
//
// In local mode, -provisional turns on two-tier emission (tagged
// provisional/revised/superseded lines ahead of each final closure line),
// and -checkpoint makes the replay resumable: streaming state is
// snapshotted to the file periodically, and a restarted replay restores it
// and skips the prefix of the stream the previous run already pushed,
// printing each event exactly once across restarts. The local-mode flags
// (-kb, -stream-workers, -shards, -provisional, -checkpoint,
// -checkpoint-interval) are refused with -udp or -tcp.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"syslogdigest"
	"syslogdigest/cmd/internal/streamrun"
	"syslogdigest/internal/syslogmsg"
)

func main() {
	var (
		syslogPath  = flag.String("syslog", "", "syslog file to replay (required)")
		udpAddr     = flag.String("udp", "", "UDP destination (one datagram per message)")
		tcpAddr     = flag.String("tcp", "", "TCP destination (newline framed)")
		speed       = flag.Float64("speed", 0, "log seconds per wall second (0 = no pacing)")
		format      = flag.String("format", "line", "wire format: line, rfc3164, or rfc5424")
		pri         = flag.Int("pri", 189, "syslog <pri> value for RFC framings")
		kbPath      = flag.String("kb", "", "knowledge base: replay into the in-process streaming engine instead of the network")
		streamWork  = flag.Int("stream-workers", 0, "shard workers for the local engine (<= 1 = serial, N > 1 = router-sharded; output is identical at any setting)")
		shardAddrs  = flag.String("shards", "", "comma-separated sdshard addresses (local mode): distribute the engine's shards across processes over the wire protocol (one shard per entry; output is identical at any setting; overrides -stream-workers)")
		provisional = flag.Duration("provisional", 0, "local mode: two-tier emission horizon — print provisional/revised/superseded lines this much log time after group birth (0 disables; the final stream is identical at any setting)")
		ckptPath    = flag.String("checkpoint", "", "local mode: restore streaming state from this file on start (skipping the messages the snapshotted run already pushed) and snapshot into it periodically")
		ckptEvery   = flag.Duration("checkpoint-interval", 30*time.Second, "how often to write the checkpoint (with -checkpoint)")
	)
	flag.Parse()
	local := *kbPath != "" && *udpAddr == "" && *tcpAddr == ""
	if *syslogPath == "" || (!local && (*udpAddr == "") == (*tcpAddr == "")) {
		fmt.Fprintln(os.Stderr, "sdreplay: need -syslog and exactly one of -udp/-tcp (or -kb alone)")
		flag.Usage()
		os.Exit(2)
	}
	if !local {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "kb", "stream-workers", "shards", "provisional", "checkpoint", "checkpoint-interval":
				fatalf("-%s applies to local mode only (with -kb and no -udp/-tcp destination)", f.Name)
			}
		})
	}

	f, err := os.Open(*syslogPath)
	if err != nil {
		fatalf("open: %v", err)
	}
	msgs, err := syslogdigest.ReadMessages(f)
	f.Close()
	if err != nil {
		fatalf("read: %v", err)
	}
	if len(msgs) == 0 {
		fatalf("empty stream")
	}
	if local {
		replayLocal(*kbPath, msgs, *speed, syslogdigest.StreamerOptions{
			StreamWorkers:      *streamWork,
			ShardAddrs:         streamrun.SplitAddrs(*shardAddrs),
			ProvisionalHorizon: *provisional,
		}, *ckptPath, *ckptEvery)
		return
	}

	var render func(m *syslogmsg.Message) string
	switch strings.ToLower(*format) {
	case "line":
		render = func(m *syslogmsg.Message) string { return m.Format() }
	case "rfc3164":
		render = func(m *syslogmsg.Message) string { return syslogmsg.FormatRFC3164(m, *pri) }
	case "rfc5424":
		render = func(m *syslogmsg.Message) string { return syslogmsg.FormatRFC5424(m, *pri) }
	default:
		fatalf("unknown -format %q", *format)
	}

	network, addr := "udp", *udpAddr
	if *tcpAddr != "" {
		network, addr = "tcp", *tcpAddr
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		fatalf("dial %s %s: %v", network, addr, err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)

	start := time.Now()
	logStart := msgs[0].Time
	sent := 0
	for i := range msgs {
		if *speed > 0 {
			due := start.Add(time.Duration(float64(msgs[i].Time.Sub(logStart)) / *speed))
			if d := time.Until(due); d > 0 {
				// Flush before sleeping so the receiver sees what's due.
				if err := w.Flush(); err != nil {
					fatalf("flush: %v", err)
				}
				time.Sleep(d)
			}
		}
		if _, err := w.WriteString(render(&msgs[i])); err != nil {
			fatalf("write: %v", err)
		}
		if err := w.WriteByte('\n'); err != nil {
			fatalf("write: %v", err)
		}
		if network == "udp" {
			// One datagram per message: flush each line.
			if err := w.Flush(); err != nil {
				fatalf("flush: %v", err)
			}
		}
		sent++
		if network == "udp" && sent%64 == 0 {
			time.Sleep(time.Millisecond) // don't overrun receiver buffers
		}
	}
	if err := w.Flush(); err != nil {
		fatalf("flush: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sdreplay: sent %d messages over %s in %s\n",
		sent, network, time.Since(start).Round(time.Millisecond))
}

// replayLocal paces the corpus into the incremental engine, printing each
// event when the watermark closes it — what a collector at the same feed
// rate would have printed, without the network. With a checkpoint file the
// replay is resumable (see streamrun.Replay).
func replayLocal(kbPath string, msgs []syslogmsg.Message, speed float64, opts syslogdigest.StreamerOptions, ckptPath string, ckptEvery time.Duration) {
	kb, err := streamrun.LoadKB(kbPath)
	if err != nil {
		fatalf("%v", err)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		fatalf("digester: %v", err)
	}
	st, restored, err := streamrun.Open(d, opts, ckptPath)
	if err != nil {
		fatalf("%v", err)
	}
	skip := 0
	if restored {
		if skip = int(st.Pushed()); skip > len(msgs) {
			fatalf("checkpoint %s is ahead of the stream: %d pushed, %d messages", ckptPath, skip, len(msgs))
		}
		fmt.Fprintf(os.Stderr, "sdreplay: restored checkpoint %s, resuming at message %d\n", ckptPath, skip)
	}

	start := time.Now()
	out := streamrun.Printer{W: os.Stdout}
	err = streamrun.Replay(st, msgs, streamrun.ReplayOptions{
		Speed: speed, CheckpointPath: ckptPath, CheckpointEvery: ckptEvery,
	}, out.Print)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "sdreplay: %d messages -> %d events in %s (local engine)\n",
		len(msgs)-skip, out.Events, time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdreplay: "+format+"\n", args...)
	os.Exit(1)
}
