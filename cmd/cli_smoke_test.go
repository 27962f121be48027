// Package cmd_test drives the built commands end to end, the way the verify
// recipe does by hand: sdgen → sdlearn → sddigest, then the same corpus
// through the streaming surfaces: sddigest -stream, and sdreplay -tcp into
// a live sdcollect. It is `make cli-smoke`.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"syslogdigest/internal/obs"
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

// syncBuffer is a command's stderr, read while the command runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitLine waits for a line matching re on a running command's stderr and
// returns its first submatch.
func waitLine(t *testing.T, stderr *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no line matching %q on stderr:\n%s", re, stderr)
		}
	}
}

var (
	tcpRE      = regexp.MustCompile(`listening tcp (\S+)`)
	metricsRE  = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	receivedRE = regexp.MustCompile(`received (\d+), dropped`)
)

// collect runs sdcollect on an ephemeral TCP port, replays the corpus into
// it with sdreplay -tcp, waits until the collector has received every
// message, and stops it with SIGINT. It returns sdcollect's stdout and
// stderr.
func (c cli) collect(t *testing.T, kb, syslog string, msgs int, args ...string) (stdout, stderr string) {
	t.Helper()
	col := exec.Command(filepath.Join(c.bin, "sdcollect"),
		append([]string{"-kb", kb, "-udp", "", "-tcp", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, args...)...)
	var out bytes.Buffer
	var errb syncBuffer
	col.Stdout, col.Stderr = &out, &errb
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	defer col.Process.Kill()
	addr := waitLine(t, &errb, tcpRE)
	metrics := waitLine(t, &errb, metricsRE)
	c.run("sdreplay", "-syslog", syslog, "-tcp", addr)
	// sdreplay is done when its bytes are sent; wait for the collector to
	// have read them before interrupting it.
	for deadline := time.Now().Add(30 * time.Second); received(t, metrics) < uint64(msgs); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sdcollect received %d of %d messages in 30 s\n%s", received(t, metrics), msgs, errb.String())
		}
	}
	if err := col.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := col.Wait(); err != nil {
		t.Fatalf("sdcollect after SIGINT: %v\n%s", err, errb.String())
	}
	return out.String(), errb.String()
}

// received reads collector.tcp.received off an exporter.
func received(t *testing.T, metrics string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counter("collector.tcp.received")
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
		"./sdgen", "./sdlearn", "./sddigest", "./sdreplay", "./sdcollect")
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

	var streamed []string // the uninterrupted stream's digest lines
	t.Run("sddigest -stream", func(t *testing.T) {
		out, errb := c.run("sddigest", "-kb", kb, "-syslog", syslog, "-stream")
		if _, got := summary(t, "sddigest -stream", errb); got != want {
			t.Fatalf("%d events, the batch digest %d", got, want)
		}
		if streamed = lines(out); len(streamed) != want {
			t.Fatalf("%d digest lines for %d events", len(streamed), want)
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

	t.Run("sddigest -speed and -checkpoint without -stream are refused", func(t *testing.T) {
		for _, args := range [][]string{{"-speed", "100"}, {"-checkpoint", c.path("batch.ckpt")}, {"-checkpoint-interval", "1s"}} {
			cmd, out, errb := c.command("sddigest", append([]string{"-kb", kb, "-syslog", syslog}, args...)...)
			if err := cmd.Run(); err == nil {
				t.Fatalf("%s without -stream exited 0 (%d bytes of output): the flag is ignored, not refused", args[0], out.Len())
			}
			if !strings.Contains(errb.String(), args[0]+" requires -stream") {
				t.Fatalf("%s without -stream failed without naming the flag:\n%s", args[0], errb)
			}
		}
	})

	// A replay killed after a checkpoint and started again must, between the
	// two runs, print the uninterrupted run's lines: the first run a prefix
	// (whatever it printed after its last checkpoint is printed again — kill
	// -9 leaves no chance to say so), the second run exactly the rest.
	t.Run("sddigest -stream -checkpoint killed and resumed", func(t *testing.T) {
		if streamed == nil {
			t.Skip("no uninterrupted stream to compare with")
		}
		ckpt := c.path("stream.ckpt")
		// Two days of log at 40000x is 4.3 s of wall clock: the kill lands
		// well inside the run.
		first, out1, err1 := c.command("sddigest", "-syslog", syslog, "-kb", kb, "-stream",
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

		out2, err2 := c.run("sddigest", "-syslog", syslog, "-kb", kb, "-stream", "-checkpoint", ckpt)
		if !strings.Contains(err2, "restored checkpoint") {
			t.Fatalf("the second run did not restore:\n%s", err2)
		}
		resumedMsgs, resumedEvents := summary(t, "resumed sddigest -stream", err2)
		if resumedMsgs == 0 || resumedMsgs >= msgs {
			t.Fatalf("the second run streamed %d of %d messages: not a resume", resumedMsgs, msgs)
		}
		printed2 := lines(out2)
		if len(printed2) != resumedEvents {
			t.Fatalf("the second run printed %d lines, its summary says %d events", len(printed2), resumedEvents)
		}
		rest := len(streamed) - len(printed2)
		if rest < 0 || !slices.Equal(printed2, streamed[rest:]) {
			t.Fatalf("the resumed run's %d lines are not the uninterrupted run's last %d", len(printed2), len(printed2))
		}
		if len(printed1) < rest || !slices.Equal(printed1, streamed[:len(printed1)]) {
			t.Fatalf("the killed run printed %d lines; want a prefix of the uninterrupted run at least %d long (%d events in all)",
				len(printed1), rest, len(streamed))
		}
		t.Logf("killed after %d lines, resumed at message %d, %d + %d = %d events",
			len(printed1), msgs-resumedMsgs, rest, len(printed2), len(streamed))
	})

	t.Run("sdcollect refuses non-positive intervals", func(t *testing.T) {
		for _, flag := range []string{"-idle", "-checkpoint-interval"} {
			cmd, _, errb := c.command("sdcollect", "-kb", kb, "-udp", "", "-tcp", "127.0.0.1:0", flag, "0")
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%s 0: %v, want exit status 1\n%s", flag, err, errb)
			}
			if !strings.Contains(errb.String(), flag+" 0s: must be positive") || strings.Contains(errb.String(), "listening") {
				t.Fatalf("%s 0 was not refused before listening, by name:\n%s", flag, errb)
			}
		}
	})

	// The live path: sdreplay -tcp into sdcollect prints what sddigest
	// -stream prints for the same file, and receives every message.
	t.Run("sdcollect fed by sdreplay -tcp", func(t *testing.T) {
		if streamed == nil {
			t.Skip("no uninterrupted stream to compare with")
		}
		out, errb := c.collect(t, kb, syslog, msgs)
		if got := lines(out); !slices.Equal(got, streamed) {
			t.Fatalf("sdcollect printed %d lines that are not sddigest -stream's %d", len(got), len(streamed))
		}
		if m := receivedRE.FindStringSubmatch(errb); m == nil || m[1] != strconv.Itoa(msgs) {
			t.Fatalf("want \"received %d\" on stderr:\n%s", msgs, errb)
		}
	})

	// An interrupt sent the moment sdcollect announces its port finds the
	// handler in place: the run drains, prints its exit line and exits 0,
	// every time.
	t.Run("sdcollect interrupted on its listening line", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			col := exec.Command(filepath.Join(c.bin, "sdcollect"), "-kb", kb, "-udp", "", "-tcp", "127.0.0.1:0")
			stderr, err := col.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Start(); err != nil {
				t.Fatal(err)
			}
			defer col.Process.Kill()
			var errb strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				errb.WriteString(sc.Text() + "\n")
				if tcpRE.MatchString(sc.Text()) {
					if err := col.Process.Signal(os.Interrupt); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := col.Wait(); err != nil {
				t.Fatalf("run %d: sdcollect interrupted on its listening line: %v\n%s", i, err, errb.String())
			}
			if !receivedRE.MatchString(errb.String()) {
				t.Fatalf("run %d: no \"received\" line on stderr:\n%s", i, errb.String())
			}
		}
	})

	// Interrupted with -checkpoint, sdcollect keeps its open groups in the
	// file instead of draining them, and the next start restores them.
	t.Run("sdcollect -checkpoint restarted", func(t *testing.T) {
		if streamed == nil {
			t.Skip("no uninterrupted stream to compare with")
		}
		ckpt := c.path("collect.ckpt")
		out, _ := c.collect(t, kb, syslog, msgs, "-checkpoint", ckpt)
		got := lines(out)
		if len(got) >= len(streamed) || !slices.Equal(got, streamed[:len(got)]) {
			t.Fatalf("the checkpointed run printed %d lines; want a proper prefix of sddigest -stream's %d", len(got), len(streamed))
		}
		again := exec.Command(filepath.Join(c.bin, "sdcollect"), "-kb", kb, "-udp", "", "-tcp", "127.0.0.1:0", "-checkpoint", ckpt)
		var errb syncBuffer
		again.Stderr = &errb
		if err := again.Start(); err != nil {
			t.Fatal(err)
		}
		defer again.Process.Kill()
		waitLine(t, &errb, tcpRE)
		if !strings.Contains(errb.String(), "restored checkpoint "+ckpt) {
			t.Fatalf("the restart did not restore:\n%s", errb.String())
		}
		if err := again.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		if err := again.Wait(); err != nil {
			t.Fatalf("restarted sdcollect after SIGINT: %v\n%s", err, errb.String())
		}
	})
}
