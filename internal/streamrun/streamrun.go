// Package streamrun is the set-up, feeding and output the streaming
// commands share (sdcollect, sddigest -stream, sdviz -live): load the
// knowledge base, parse -shards, build the run's streamer — restored from a
// checkpoint file when there is one — feed it, and print what each push
// returns. A file reaches a streamer through Replay, a socket through Live.
// The commands keep their own flags; a run's shape reaches the library as
// one syslogdigest.StreamerOptions value.
package streamrun

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"syslogdigest"
	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/event"
)

// LoadKB reads the knowledge base sdlearn saved at path.
func LoadKB(path string) (*syslogdigest.KnowledgeBase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open kb: %w", err)
	}
	defer f.Close()
	kb, err := syslogdigest.LoadKnowledgeBase(f)
	if err != nil {
		return nil, fmt.Errorf("load kb: %w", err)
	}
	return kb, nil
}

// SplitAddrs parses a -shards flag: comma-separated host:port entries,
// blanks ignored; nil when the flag is unset (in-process engine).
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Open builds the run's streamer over d: restored from the checkpoint file
// at ckptPath when that file exists (the bool reports it), new otherwise —
// an empty ckptPath never restores. Either way opts are this run's own. A
// checkpoint that does not restore is an error whose message says whether
// this build cannot read it or it is damaged; the run does not start.
func Open(d *syslogdigest.Digester, opts syslogdigest.StreamerOptions, ckptPath string) (*syslogdigest.Streamer, bool, error) {
	if ckptPath != "" {
		snap, err := syslogdigest.ReadCheckpoint(ckptPath)
		switch {
		case err == nil:
			st, err := syslogdigest.RestoreStreamer(d, snap, opts)
			switch {
			case errors.Is(err, checkpoint.ErrUnsupportedVersion):
				return nil, false, fmt.Errorf("restore checkpoint %s: written by a newer build or not a checkpoint: %w", ckptPath, err)
			case errors.Is(err, checkpoint.ErrCorrupt):
				return nil, false, fmt.Errorf("restore checkpoint %s: damaged: %w", ckptPath, err)
			case err != nil:
				return nil, false, fmt.Errorf("restore checkpoint %s: %w", ckptPath, err)
			}
			return st, true, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, false, fmt.Errorf("read checkpoint %s: %w", ckptPath, err)
		}
	}
	return syslogdigest.NewStreamerWith(d, opts), false, nil
}

// ReplayOptions are what the file-fed commands vary about a replay.
type ReplayOptions struct {
	Speed       float64 // log seconds per wall second; 0 replays unpaced
	BeforeSleep func()  // optional, runs before each pacing sleep (sdviz repaints its board)
	// CheckpointPath, when set, gets a snapshot every CheckpointEvery of wall
	// time and one after the Flush, which marks the replay complete: a
	// restart then skips the whole file instead of emitting it again.
	CheckpointPath  string
	CheckpointEvery time.Duration
}

// Replay pushes msgs into st paced by their timestamps, then flushes and
// closes it. Each result goes to deliver (Printer.Print, say) before its
// error is looked at: events that accompany an error are final. A streamer
// restored from a checkpoint has pushed a prefix of msgs already; Replay
// skips exactly that prefix (Streamer.Pushed), so a killed replay continues
// where it stopped and delivers each event once across the restarts.
func Replay(st *syslogdigest.Streamer, msgs []syslogdigest.Message, o ReplayOptions, deliver func(*syslogdigest.DigestResult) error) error {
	start, lastCkpt := time.Now(), time.Now()
	// Pacing runs from the first message this call pushes: the prefix a
	// restored streamer already pushed is not waited for again.
	first := int(st.Pushed())
	// Step len(msgs) is the Flush; what follows a Push follows it too.
	for i := first; i <= len(msgs); i++ {
		flush := i == len(msgs)
		if !flush && o.Speed > 0 {
			due := start.Add(time.Duration(float64(msgs[i].Time.Sub(msgs[first].Time)) / o.Speed))
			if d := time.Until(due); d > 0 {
				if o.BeforeSleep != nil {
					o.BeforeSleep()
				}
				time.Sleep(d)
			}
		}
		var (
			res  *syslogdigest.DigestResult
			err  error
			what = "stream"
		)
		if flush {
			what = "stream flush"
			res, err = st.Flush()
		} else {
			res, err = st.Push(msgs[i])
		}
		if werr := deliver(res); werr != nil {
			return fmt.Errorf("write: %w", werr)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if o.CheckpointPath != "" && (flush || time.Since(lastCkpt) >= o.CheckpointEvery) {
			snap, err := st.Snapshot()
			if err := writeCheckpoint(o.CheckpointPath, snap, err); err != nil {
				return err
			}
			lastCkpt = time.Now()
		}
	}
	st.Close()
	return nil
}

// writeCheckpoint writes what Streamer.Snapshot returned (snap, err) to the
// file at path, atomically: a failed write leaves the previous checkpoint
// intact. The snapshot needs the streamer; the write does not.
func writeCheckpoint(path string, snap []byte, err error) error {
	if err == nil {
		err = syslogdigest.WriteCheckpoint(path, snap)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Printer writes streaming results the way every command does: the
// tier-tagged provisional/revised/superseded records first (in a live feed
// a provisional record precedes the final event it anticipates; the final
// tier record is skipped — the event itself is the final record), then each
// closed event. The counters total what was written.
type Printer struct {
	W io.Writer
	// JSON switches from digest lines to newline-delimited JSON: one object
	// per tier record (they carry "status") and one per event.
	JSON bool
	// Raw adds each event's raw message indices under its digest line.
	Raw bool

	Events  int // events written
	Updates int // tier records written
}

// Print writes one Push or Flush result (nil prints nothing) and returns
// the first write error.
func (p *Printer) Print(res *syslogdigest.DigestResult) error {
	if res == nil {
		return nil
	}
	var tier []syslogdigest.Update
	for i := range res.Updates {
		if res.Updates[i].Status != syslogdigest.StatusFinal {
			tier = append(tier, res.Updates[i])
		}
	}
	p.Updates += len(tier)
	p.Events += len(res.Events)
	if p.JSON {
		if err := event.WriteUpdatesJSON(p.W, tier); err != nil {
			return err
		}
		return event.WriteJSON(p.W, res.Events)
	}
	for i := range tier {
		if _, err := fmt.Fprintln(p.W, tier[i].Digest()); err != nil {
			return err
		}
	}
	for _, e := range res.Events {
		line := e.Digest() + "\n"
		if p.Raw {
			line += fmt.Sprintf("  raw indices: %v\n", e.RawIndexes)
		}
		if _, err := io.WriteString(p.W, line); err != nil {
			return err
		}
	}
	return nil
}
