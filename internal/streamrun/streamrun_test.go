package streamrun

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"syslogdigest"
	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/gen"
)

// TestOpenNamesRefusal: a checkpoint that does not restore stops the run
// with a message saying which refusal it is — a file this build cannot read,
// or a damaged one.
func TestOpenNamesRefusal(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{Kind: gen.DatasetA, Routers: 4, Seed: 9, Duration: 4 * time.Hour, RateScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{})
	for _, m := range ds.Messages {
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stamped := fmt.Sprintf(`"version": %d`, checkpoint.Version)
	if !strings.Contains(string(snap), stamped) {
		t.Fatalf("snapshot does not carry %s", stamped)
	}
	newer := strings.Replace(string(snap), stamped, fmt.Sprintf(`"version": %d`, checkpoint.Version+1), 1)
	for _, c := range []struct {
		name, says string
		data       []byte
		want       error
	}{
		{"newer", "newer build", []byte(newer), checkpoint.ErrUnsupportedVersion},
		{"truncated", "damaged", snap[:len(snap)/2], checkpoint.ErrCorrupt},
	} {
		path := filepath.Join(t.TempDir(), c.name+".ckpt")
		if err := os.WriteFile(path, c.data, 0o600); err != nil {
			t.Fatal(err)
		}
		_, restored, err := Open(d, syslogdigest.StreamerOptions{}, path)
		if err == nil || restored {
			t.Fatalf("%s: Open restored it", c.name)
		}
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.says) {
			t.Fatalf("%s: %q does not wrap %q and say %q", c.name, err, c.want, c.says)
		}
	}
}

// TestReplayResumedPacesFromItsFirstPush: a streamer restored mid-file skips
// the prefix it pushed, and pacing starts at the first message it pushes
// now. Here the skipped prefix ends an hour of log time before the rest,
// and the rest spans no log time, so at 3600 log seconds per wall second
// the resumed replay must not sleep the second the skipped hour is worth.
func TestReplayResumedPacesFromItsFirstPush(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{Kind: gen.DatasetA, Routers: 8, Seed: 9, Duration: 12 * time.Hour, RateScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	msgs := append([]syslogdigest.Message(nil), ds.Messages...)
	skipped := len(msgs) / 2
	if skipped < 50 {
		t.Fatalf("corpus too small: %d messages", len(msgs))
	}
	resume := msgs[0].Time.Add(time.Hour)
	for i := skipped; i < len(msgs); i++ {
		msgs[i].Time = resume
	}
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{})
	for _, m := range msgs[:skipped] {
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := syslogdigest.RestoreStreamer(d, snap, syslogdigest.StreamerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if err := Replay(restored, msgs, ReplayOptions{Speed: 3600}, func(*syslogdigest.DigestResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > 500*time.Millisecond {
		t.Fatalf("resumed replay of messages spanning 0 s of log time took %v", took)
	}
}
