// livefeed: the full operational loop in one process — routers streaming
// syslog over the network to a collector (the paper's deployment model),
// with the online digester consuming the collected feed through two-tier
// emission.
//
// A generated dataset-A stretch is replayed over real loopback UDP in RFC
// 3164 framing; the collector parses the wire format back into messages and
// pushes each one straight into the streaming engine through streamrun.Live,
// the composition sdcollect runs. With a provisional horizon set, every
// group prints a first signal seconds of log time after its birth, is
// folded into its absorbing event on a merge, and flips to final at closure
// — the live view an operator watches, hours before the exact closure rule
// could speak.
//
// Run with: go run ./examples/livefeed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"syslogdigest"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/streamrun"
	"syslogdigest/internal/syslogmsg"
)

func main() {
	// Learn offline from history, as usual.
	history, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 20, Seed: 41,
		Start:    time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC),
		Duration: 2 * 24 * time.Hour, RateScale: 0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(history.Messages, history.Net.Configs)
	if err != nil {
		log.Fatal(err)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		log.Fatal(err)
	}

	// The streaming front-end with the provisional tier on: first signal 30
	// seconds (log time) after a group is born, against the hours-scale
	// closure horizon the final tier needs.
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{
		ProvisionalHorizon: 30 * time.Second,
	})

	var counts [4]int
	show := func(res *syslogdigest.DigestResult) error {
		if res == nil {
			return nil
		}
		for i := range res.Updates {
			u := &res.Updates[i]
			counts[u.Status]++
			// Print first signals and resolutions; skip per-message
			// revisions to keep the feed readable.
			if u.Status != syslogdigest.StatusRevised {
				fmt.Println(u.Digest())
			}
		}
		return nil
	}

	// Start the collector on an ephemeral loopback UDP port, feeding the
	// streamer directly — no batching anywhere. The feed below never pauses
	// for a minute, so only Close drains the open groups.
	live, err := streamrun.StartLive(st, collector.Config{UDPAddr: "127.0.0.1:0", Year: 2009},
		streamrun.LiveOptions{Idle: time.Minute, OnError: func(err error) { log.Println(err) }}, show)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("collector listening on", live.UDPAddr())

	// Replay a fresh stretch of traffic over the wire in RFC 3164 framing —
	// exactly what a router's "logging host" configuration would send.
	day, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 20, Seed: 43,
		Start:    time.Date(2009, 12, 1, 0, 0, 0, 0, time.UTC),
		Duration: 6 * time.Hour, RateScale: 0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	conn, err := net.Dial("udp", live.UDPAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	sent := 0
	for i := range day.Messages {
		wire := syslogmsg.FormatRFC3164(&day.Messages[i], 189)
		if _, err := conn.Write([]byte(wire)); err != nil {
			log.Fatal(err)
		}
		sent++
		if sent%64 == 0 {
			time.Sleep(time.Millisecond) // pace loopback bursts
		}
	}

	// Wait for the datagrams to drain, then close: open groups force-close
	// and every surviving identity resolves to final.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if int(live.Stats().Received)+int(live.Stats().Dropped) >= sent {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cst := live.Stats()
	fmt.Printf("sent %d datagrams; collector received %d, dropped %d\n", sent, cst.Received, cst.Dropped)
	live.Close()

	fmt.Printf("\ntwo-tier books: %d provisional, %d revised, %d superseded, %d final\n",
		counts[syslogdigest.StatusProvisional], counts[syslogdigest.StatusRevised],
		counts[syslogdigest.StatusSuperseded], counts[syslogdigest.StatusFinal])
}
