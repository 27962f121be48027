// Command sdreplay streams a serialized syslog file to a collector over the
// network, preserving relative message timing with optional compression —
// the testing companion to cmd/sdcollect. It only sends: to digest a file
// through the streaming engine, use sddigest -stream; to rehearse the live
// path, reorder buffer included, replay into sdcollect.
//
// Usage:
//
//	sdreplay -syslog ds/syslog.log -udp 127.0.0.1:5514 -speed 600
//	sdreplay -syslog ds/syslog.log -tcp 127.0.0.1:5514 -format rfc3164
//
// -speed N plays N seconds of log time per wall-clock second (0 = as fast
// as possible). -format selects the wire framing: line (the repository
// format), rfc3164, or rfc5424.
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
	"syslogdigest/internal/syslogmsg"
)

func main() {
	var (
		syslogPath = flag.String("syslog", "", "syslog file to replay (required)")
		udpAddr    = flag.String("udp", "", "UDP destination (one datagram per message)")
		tcpAddr    = flag.String("tcp", "", "TCP destination (newline framed)")
		speed      = flag.Float64("speed", 0, "log seconds per wall second (0 = no pacing)")
		format     = flag.String("format", "line", "wire format: line, rfc3164, or rfc5424")
		pri        = flag.Int("pri", 189, "syslog <pri> value for RFC framings")
	)
	flag.Parse()
	if *syslogPath == "" || (*udpAddr == "") == (*tcpAddr == "") {
		fmt.Fprintln(os.Stderr, "sdreplay: need -syslog and exactly one of -udp/-tcp")
		flag.Usage()
		os.Exit(2)
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdreplay: "+format+"\n", args...)
	os.Exit(1)
}
