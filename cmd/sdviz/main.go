// Command sdviz renders the Figures 14/15 comparison as an ASCII network
// health map: for a time window of a syslog stream, the per-router picture
// an events-based view gives versus the raw-message view.
//
// Usage:
//
//	sdviz -kb kb.json -syslog live.log [-at "2009-12-05 16:00:00"] [-window 10m]
//	sdviz -kb kb.json -syslog live.log -live [-provisional 30s] [-speed 600]
//
// Without -at, the busiest window of the stream is chosen.
//
// -live replays the stream through the two-tier streaming engine and renders
// a live event board instead of the static map: a provisional event appears
// seconds (of log time) after its first message, updates in place as
// messages arrive, is folded into its absorbing event on a merge, and flips
// to final at closure. On a terminal the board redraws in place (ANSI);
// elsewhere each transition prints as one tagged line. -speed paces the
// replay in log seconds per wall second (0 = as fast as possible).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"syslogdigest"
	"syslogdigest/cmd/internal/streamrun"
	"syslogdigest/internal/syslogmsg"
)

func main() {
	var (
		kbPath      = flag.String("kb", "kb.json", "knowledge-base JSON from sdlearn")
		syslogPath  = flag.String("syslog", "", "syslog stream (required)")
		atFlag      = flag.String("at", "", "window start (UTC '2006-01-02 15:04:05'); empty = busiest window")
		window      = flag.Duration("window", 10*time.Minute, "window length")
		live        = flag.Bool("live", false, "render a live two-tier event board instead of the static map")
		provisional = flag.Duration("provisional", 30*time.Second, "live mode: provisional horizon — an open group appears on the board this much log time after birth")
		speed       = flag.Float64("speed", 0, "live mode: log seconds per wall second (0 = no pacing)")
	)
	flag.Parse()
	if *syslogPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	kb, err := streamrun.LoadKB(*kbPath)
	if err != nil {
		fatalf("%v", err)
	}
	sf, err := os.Open(*syslogPath)
	if err != nil {
		fatalf("open syslog: %v", err)
	}
	msgs, err := syslogdigest.ReadMessages(sf)
	sf.Close()
	if err != nil {
		fatalf("read syslog: %v", err)
	}
	if len(msgs) == 0 {
		fatalf("empty syslog stream")
	}

	if *live {
		liveView(kb, msgs, *provisional, *speed)
		return
	}

	var at time.Time
	if *atFlag != "" {
		at, err = time.Parse(syslogmsg.TimeLayout, *atFlag)
		if err != nil {
			fatalf("bad -at: %v", err)
		}
	} else {
		at = busiest(msgs, *window)
	}

	var batch []syslogdigest.Message
	for i := range msgs {
		if !msgs[i].Time.Before(at) && msgs[i].Time.Before(at.Add(*window)) {
			batch = append(batch, msgs[i])
		}
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		fatalf("digester: %v", err)
	}
	res, err := d.Digest(batch)
	if err != nil {
		fatalf("digest: %v", err)
	}

	msgCount := map[string]int{}
	for i := range batch {
		msgCount[batch[i].Router]++
	}
	evCount := map[string]int{}
	for _, e := range res.Events {
		for _, r := range e.Routers {
			evCount[r]++
		}
	}
	routers := make([]string, 0, len(msgCount))
	for r := range msgCount {
		routers = append(routers, r)
	}
	sort.Slice(routers, func(i, j int) bool {
		if msgCount[routers[i]] != msgCount[routers[j]] {
			return msgCount[routers[i]] > msgCount[routers[j]]
		}
		return routers[i] < routers[j]
	})

	fmt.Printf("network health map %s .. %s (%d messages, %d events)\n\n",
		at.Format(syslogmsg.TimeLayout), at.Add(*window).Format(syslogmsg.TimeLayout),
		len(batch), len(res.Events))
	fmt.Printf("%-10s %-22s %-30s\n", "router", "events view", "raw syslog view")
	for _, r := range routers {
		fmt.Printf("%-10s %-22s %-30s (%d msgs, %d events)\n",
			r, dots(evCount[r], 1, 20), dots(msgCount[r], 25, 30), msgCount[r], evCount[r])
	}
	fmt.Println("\ntop events in window:")
	n := len(res.Events)
	if n > 5 {
		n = 5
	}
	for _, e := range res.Events[:n] {
		fmt.Println("  " + e.Digest())
	}
}

// liveView replays the stream through the streaming engine with two-tier
// emission and renders the event board: open provisional events as
// in-place-updating lines, finals printed permanently above them.
func liveView(kb *syslogdigest.KnowledgeBase, msgs []syslogdigest.Message, horizon time.Duration, speed float64) {
	if horizon <= 0 {
		fatalf("-live needs a positive -provisional horizon")
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		fatalf("digester: %v", err)
	}
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{ProvisionalHorizon: horizon})

	b := newBoard(os.Stdout)
	err = streamrun.Replay(st, msgs, streamrun.ReplayOptions{Speed: speed, BeforeSleep: b.redraw}, func(res *syslogdigest.DigestResult) error {
		if res != nil {
			for i := range res.Updates {
				b.apply(&res.Updates[i])
			}
		}
		return nil
	})
	if err != nil {
		fatalf("%v", err)
	}
	b.close()
}

// board is the live renderer. On a terminal it keeps one line per open
// provisional event and redraws them in place with ANSI cursor movement;
// finals scroll away permanently above the board. On a pipe it degrades to
// one tagged line per transition.
type board struct {
	out      *os.File
	tty      bool
	ids      []uint64 // board rows, in first-appearance order
	rows     map[uint64]string
	drawn    int // lines currently on screen
	lastDraw time.Time
	finals   int
}

func newBoard(out *os.File) *board {
	tty := false
	if fi, err := out.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		tty = true
	}
	return &board{out: out, tty: tty, rows: map[uint64]string{}}
}

// apply folds one update into the board.
func (b *board) apply(u *syslogdigest.Update) {
	if !b.tty {
		fmt.Fprintln(b.out, u.Digest())
		if u.Status == syslogdigest.StatusFinal {
			b.finals++
		}
		return
	}
	switch u.Status {
	case syslogdigest.StatusProvisional:
		b.ids = append(b.ids, u.EventID)
		b.rows[u.EventID] = fmt.Sprintf("~ #%-5d %s", u.EventID, u.Event.Digest())
	case syslogdigest.StatusRevised:
		b.rows[u.EventID] = fmt.Sprintf("~ #%-5d %s", u.EventID, u.Event.Digest())
	case syslogdigest.StatusSuperseded:
		b.drop(u.EventID)
	case syslogdigest.StatusFinal:
		b.drop(u.EventID)
		b.finals++
		// Print the final permanently above the board: erase, print, redraw.
		b.erase()
		fmt.Fprintf(b.out, "✔ %s\n", u.Event.Digest())
	}
	// Throttle in-place refreshes; transitions that changed the line count
	// (drop/erase above) redraw unconditionally via drawn mismatch.
	if time.Since(b.lastDraw) >= 50*time.Millisecond || b.drawn != len(b.ids) {
		b.redraw()
	}
}

func (b *board) drop(id uint64) {
	delete(b.rows, id)
	for i, v := range b.ids {
		if v == id {
			b.ids = append(b.ids[:i], b.ids[i+1:]...)
			break
		}
	}
}

// erase clears the board's lines from the screen.
func (b *board) erase() {
	if b.drawn > 0 {
		fmt.Fprintf(b.out, "\x1b[%dA\x1b[J", b.drawn)
		b.drawn = 0
	}
}

// redraw repaints the open-event lines in place.
func (b *board) redraw() {
	if !b.tty {
		return
	}
	b.erase()
	for _, id := range b.ids {
		fmt.Fprintln(b.out, b.rows[id])
	}
	b.drawn = len(b.ids)
	b.lastDraw = time.Now()
}

// close erases the (now empty — Flush finalized everything) board and
// prints the tally.
func (b *board) close() {
	if b.tty {
		b.erase()
	}
	fmt.Fprintf(os.Stderr, "sdviz: %d events finalized\n", b.finals)
}

// dots renders n (scaled down by per) as a bar capped at max.
func dots(n, per, max int) string {
	k := (n + per - 1) / per
	if k > max {
		k = max
	}
	if k < 0 {
		k = 0
	}
	return strings.Repeat("*", k)
}

func busiest(msgs []syslogdigest.Message, window time.Duration) time.Time {
	best, bestN := msgs[0].Time, 0
	j := 0
	for i := range msgs {
		if j < i {
			j = i
		}
		deadline := msgs[i].Time.Add(window)
		for j < len(msgs) && msgs[j].Time.Before(deadline) {
			j++
		}
		if n := j - i; n > bestN {
			best, bestN = msgs[i].Time, n
		}
	}
	return best
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdviz: "+format+"\n", args...)
	os.Exit(1)
}
