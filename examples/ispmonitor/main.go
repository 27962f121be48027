// ispmonitor: the dataset-A workflow of the paper's evaluation — learn
// domain knowledge offline from historical ISP-backbone syslog, then run the
// online digester over fresh traffic and present the prioritized event list
// a network operator would watch.
//
// The traffic comes from the repository's network simulator (the substitute
// for the paper's proprietary tier-1 ISP feed); a downstream user would
// instead feed their own syslog files through syslogdigest.ReadMessages.
//
// Run with: go run ./examples/ispmonitor
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"syslogdigest"
	"syslogdigest/internal/gen"
)

func main() {
	// Historical period (offline learning) and a fresh day (online).
	history, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 30, Seed: 11,
		Start:    time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC),
		Duration: 3 * 24 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	today, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 30, Seed: 12,
		Start:    time.Date(2009, 12, 1, 0, 0, 0, 0, time.UTC),
		Duration: 24 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	params := syslogdigest.DefaultParams()
	params.CalibrateTemporal = true // derive alpha/beta from the history
	kb, err := syslogdigest.NewLearner(params).Learn(history.Messages, history.Net.Configs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: learned %d templates, %d rules from %d historical messages\n",
		len(kb.Templates), kb.RuleBase.Len(), len(history.Messages))
	fmt.Printf("offline: calibrated temporal parameters alpha=%g beta=%g\n\n",
		kb.Params.Temporal.Alpha, kb.Params.Temporal.Beta)

	// Online: stream today's syslog through the digester. The Streamer
	// emits each event as soon as the engine's watermark proves no later
	// message can join it, so events arrive incrementally; the final Flush
	// closes whatever the end of the feed left open.
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		log.Fatal(err)
	}
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{})
	var events []syslogdigest.Event
	msgs := 0
	for _, m := range today.Messages {
		res, err := st.Push(m)
		if err != nil {
			log.Fatal(err)
		}
		msgs++
		if res != nil {
			events = append(events, res.Events...)
		}
	}
	if res, err := st.Flush(); err != nil {
		log.Fatal(err)
	} else if res != nil {
		events = append(events, res.Events...)
	}

	fmt.Printf("online: %d messages -> %d events (compression ratio %.2e)\n\n",
		msgs, len(events), float64(len(events))/float64(msgs))

	fmt.Println("top 10 events of the day:")
	// Streamed events arrive in closure order; rank the union for the day
	// view.
	top := append([]syslogdigest.Event(nil), events...)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Score > top[j].Score })
	for i, e := range top {
		if i == 10 {
			break
		}
		fmt.Printf("%2d. %s\n", i+1, e.Digest())
	}
}
