// Package cmd_test drives the built commands end to end, the way the verify
// recipe does by hand: sdgen → sdlearn → sddigest, then the same corpus
// through every local streaming surface. It is `make cli-smoke`.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// summaryRE matches the "N messages -> M events" line every digesting
// command writes to stderr.
var summaryRE = regexp.MustCompile(`(\d+) messages -> (\d+) events`)

// cli is one test's built binaries and scratch directory.
type cli struct {
	t   *testing.T
	bin string
	dir string
}

func (c cli) path(name string) string { return filepath.Join(c.dir, name) }

// command prepares bin/<name> with its two output streams captured.
func (c cli) command(name string, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	cmd := exec.Command(filepath.Join(c.bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	return cmd, &stdout, &stderr
}

// run executes a command to completion and requires exit status 0.
func (c cli) run(name string, args ...string) (stdout, stderr string) {
	c.t.Helper()
	cmd, out, errb := c.command(name, args...)
	if err := cmd.Run(); err != nil {
		c.t.Fatalf("%s %v: %v\n%s", name, args, err, errb)
	}
	return out.String(), errb.String()
}

// summary extracts the message and event counts of a stderr summary line.
func summary(t *testing.T, what, stderr string) (msgs, events int) {
	t.Helper()
	m := summaryRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("%s: no \"N messages -> M events\" line in:\n%s", what, stderr)
	}
	msgs, _ = strconv.Atoi(m[1])
	events, _ = strconv.Atoi(m[2])
	return msgs, events
}

// lines splits captured stdout into its complete lines (a process killed
// mid-write may leave a torn last one, which is dropped).
func lines(stdout string) []string {
	if i := strings.LastIndexByte(stdout, '\n'); i >= 0 {
		return strings.Split(stdout[:i], "\n")
	}
	return nil
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command binaries")
	}
	c := cli{t: t, bin: t.TempDir(), dir: t.TempDir()}
	build := exec.Command("go", "build", "-o", c.bin+string(filepath.Separator),
		"./sdgen", "./sdlearn", "./sddigest", "./sdreplay")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ds, kb := c.path("ds"), c.path("kb.json")
	syslog := filepath.Join(ds, "syslog.log")
	c.run("sdgen", "-kind", "A", "-routers", "15", "-days", "2", "-out", ds)
	c.run("sdlearn", "-syslog", syslog, "-configs", filepath.Join(ds, "configs"), "-kb", kb)

	// The batch digest sets the count every other surface must report.
	batchOut, batchErr := c.run("sddigest", "-kb", kb, "-syslog", syslog)
	msgs, want := summary(t, "sddigest", batchErr)
	if msgs == 0 || want == 0 || want >= msgs {
		t.Fatalf("sddigest: %d messages -> %d events: nothing was digested", msgs, want)
	}
	if got := len(lines(batchOut)); got != want {
		t.Fatalf("sddigest printed %d digest lines, its summary says %d events", got, want)
	}

	t.Run("sddigest -stream", func(t *testing.T) {
		out, errb := c.run("sddigest", "-kb", kb, "-syslog", syslog, "-stream")
		if _, got := summary(t, "sddigest -stream", errb); got != want {
			t.Fatalf("%d events, the batch digest %d", got, want)
		}
		if got := len(lines(out)); got != want {
			t.Fatalf("%d digest lines for %d events", got, want)
		}
	})

	t.Run("sddigest -stream -json", func(t *testing.T) {
		out, errb := c.run("sddigest", "-kb", kb, "-syslog", syslog, "-stream", "-json", "-provisional", "30s")
		events, tier := 0, 0
		for i, ln := range lines(out) {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("stdout line %d is not a JSON object: %v\n%s", i+1, err, ln)
			}
			if _, ok := rec["status"]; ok {
				tier++
			} else if _, ok := rec["label"]; ok {
				events++
			} else {
				t.Fatalf("stdout line %d is neither a tier record nor an event:\n%s", i+1, ln)
			}
		}
		if events != want {
			t.Fatalf("%d event objects, the batch digest has %d events", events, want)
		}
		if tier == 0 {
			t.Fatal("-provisional 30s produced no tier records in the JSON stream")
		}
		if _, got := summary(t, "sddigest -stream -json", errb); got != want {
			t.Fatalf("summary says %d events, want %d", got, want)
		}
	})

	t.Run("sddigest -stream rejects -top and -show", func(t *testing.T) {
		for _, flag := range []string{"-top", "-show"} {
			cmd, out, errb := c.command("sddigest", "-kb", kb, "-syslog", syslog, "-stream", flag, "3")
			if err := cmd.Run(); err == nil {
				t.Fatalf("-stream %s 3 exited 0 (%d bytes of output): the flag is ignored, not rejected", flag, out.Len())
			}
			if !strings.Contains(errb.String(), "-top and -show require the batch digest") {
				t.Fatalf("-stream %s 3 failed without naming the conflict:\n%s", flag, errb)
			}
		}
	})

	t.Run("sddigest -stream-workers without -stream is refused", func(t *testing.T) {
		cmd, out, errb := c.command("sddigest", "-kb", kb, "-syslog", syslog, "-stream-workers", "4")
		if err := cmd.Run(); err == nil {
			t.Fatalf("-stream-workers 4 without -stream exited 0 (%d bytes of output): the flag is ignored, not refused", out.Len())
		}
		if !strings.Contains(errb.String(), "-stream-workers requires -stream") {
			t.Fatalf("-stream-workers 4 failed without naming the flag:\n%s", errb)
		}
	})

	// A destination that records what reaches it: the refused replay must
	// exit before its first datagram.
	t.Run("sdreplay -udp refuses -kb", func(t *testing.T) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		cmd, _, errb := c.command("sdreplay", "-syslog", syslog, "-udp", pc.LocalAddr().String(), "-kb", kb)
		if err := cmd.Run(); err == nil {
			t.Fatal("-udp with -kb exited 0: the flag is ignored, not refused")
		}
		if !strings.Contains(errb.String(), "-kb applies to local mode only") {
			t.Fatalf("-udp with -kb failed without naming the flag:\n%s", errb)
		}
		pc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		buf := make([]byte, 64<<10)
		n, _, err := pc.ReadFrom(buf)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the refused replay sent a datagram (%d bytes, err %v): %q", n, err, buf[:n])
		}
	})

	var replayed []string // the uninterrupted local replay's digest lines
	t.Run("sdreplay -kb", func(t *testing.T) {
		out, errb := c.run("sdreplay", "-syslog", syslog, "-kb", kb)
		if _, got := summary(t, "sdreplay -kb", errb); got != want {
			t.Fatalf("%d events, the batch digest %d", got, want)
		}
		if replayed = lines(out); len(replayed) != want {
			t.Fatalf("%d digest lines for %d events", len(replayed), want)
		}
	})

	// A replay killed after a checkpoint and started again must, between the
	// two runs, print the uninterrupted run's lines: the first run a prefix
	// (whatever it printed after its last checkpoint is printed again — kill
	// -9 leaves no chance to say so), the second run exactly the rest.
	t.Run("sdreplay -kb -checkpoint killed and resumed", func(t *testing.T) {
		if replayed == nil {
			t.Skip("no uninterrupted replay to compare with")
		}
		ckpt := c.path("replay.ckpt")
		// Two days of log at 40000x is 4.3 s of wall clock: the kill lands
		// well inside the run.
		first, out1, err1 := c.command("sdreplay", "-syslog", syslog, "-kb", kb,
			"-speed", "40000", "-checkpoint", ckpt, "-checkpoint-interval", "100ms")
		if err := first.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
			if time.Now().After(deadline) {
				first.Process.Kill()
				first.Wait()
				t.Fatalf("no checkpoint after 30 s\n%s", err1)
			}
			time.Sleep(20 * time.Millisecond)
		}
		time.Sleep(400 * time.Millisecond) // a few more checkpoints, some events out
		first.Process.Kill()
		if err := first.Wait(); err == nil {
			t.Fatalf("the paced replay finished before the kill:\n%s", err1)
		}
		printed1 := lines(out1.String())

		out2, err2 := c.run("sdreplay", "-syslog", syslog, "-kb", kb, "-checkpoint", ckpt)
		if !strings.Contains(err2, "restored checkpoint") {
			t.Fatalf("the second run did not restore:\n%s", err2)
		}
		resumedMsgs, resumedEvents := summary(t, "resumed sdreplay", err2)
		if resumedMsgs == 0 || resumedMsgs >= msgs {
			t.Fatalf("the second run replayed %d of %d messages: not a resume", resumedMsgs, msgs)
		}
		printed2 := lines(out2)
		if len(printed2) != resumedEvents {
			t.Fatalf("the second run printed %d lines, its summary says %d events", len(printed2), resumedEvents)
		}
		rest := len(replayed) - len(printed2)
		if rest < 0 || !slices.Equal(printed2, replayed[rest:]) {
			t.Fatalf("the resumed run's %d lines are not the uninterrupted run's last %d", len(printed2), len(printed2))
		}
		if len(printed1) < rest || !slices.Equal(printed1, replayed[:len(printed1)]) {
			t.Fatalf("the killed run printed %d lines; want a prefix of the uninterrupted run at least %d long (%d events in all)",
				len(printed1), rest, len(replayed))
		}
		t.Logf("killed after %d lines, resumed at message %d, %d + %d = %d events",
			len(printed1), msgs-resumedMsgs, rest, len(printed2), len(replayed))
	})
}
