package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// allocBudget is the steady-state allocation ceiling per pushed message.
// The pooled hot path (PR 8) recycles Pending records, batch buffers, and
// group scratch, so a warm engine allocates at most the occasional event
// emission and map-growth noise — anything above one allocation per message
// means a per-push rebuild crept back in.
const allocBudget = 1.0

// corpusAllocs warms a streamer over the first part of ds and measures
// allocations per push across the next runs messages. The corpus must hold
// at least warm+runs+2 messages (AllocsPerRun calls the body once extra).
//
// The return value is net of open-state growth: when the measurement window
// admits more messages into open groups than closures release (storm feeds
// hold messages live for the full closure horizon), each net-new live
// record is one unavoidable pool allocation — that is the algorithm's
// working set growing, not per-push overhead, and it is measured exactly by
// the pool gets−puts delta. Once closures keep pace the correction is zero.
func corpusAllocs(t *testing.T, kb *KnowledgeBase, ds *gen.Dataset, opts StreamerOptions, warm, runs int) float64 {
	t.Helper()
	if need := warm + runs + 2; len(ds.Messages) < need {
		t.Fatalf("corpus too small: %d messages, need %d", len(ds.Messages), need)
	}
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := NewStreamerWith(d, opts)
	defer st.Close()
	st.Instrument(reg)
	i := 0
	push := func() {
		if _, err := st.Push(ds.Messages[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < warm; j++ {
		push()
	}
	live := func() int64 {
		snap := reg.Snapshot()
		return int64(snap.Counter("stream.pool.pending.gets")) - int64(snap.Counter("stream.pool.pending.puts"))
	}
	before := live()
	avg := testing.AllocsPerRun(runs, push)
	if growth := live() - before; growth > 0 {
		avg -= float64(growth) / float64(runs)
	}
	if avg < 0 {
		avg = 0
	}
	return avg
}

// syntheticAllocs measures the single-stream regime: one router, one
// template, strictly increasing time — the same feed the original serial
// guard used, now parameterized by worker count. Like corpusAllocs, the
// result is net of the pool gets−puts delta: the sharded dispatcher
// acquires records at Push time while the merge goroutine returns them,
// and on one CPU the short measurement window can end before the merge
// side runs at all — every record acquired against an empty pool is then
// a deferred recycle, not per-push overhead.
func syntheticAllocs(t *testing.T, workers int) float64 {
	t.Helper()
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := NewStreamerWith(d, StreamerOptions{StreamWorkers: workers})
	defer st.Close()
	st.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	step := 0
	push := func() {
		m := syslogmsg.Message{Time: t0.Add(time.Duration(step) * time.Second),
			Router: "x", Code: "A-1-B", Detail: "d"}
		step++
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		push()
	}
	live := func() int64 {
		snap := reg.Snapshot()
		return int64(snap.Counter("stream.pool.pending.gets")) - int64(snap.Counter("stream.pool.pending.puts"))
	}
	const runs = 512
	before := live()
	avg := testing.AllocsPerRun(runs, push)
	if growth := live() - before; growth > 0 {
		avg -= float64(growth) / float64(runs)
	}
	if avg < 0 {
		avg = 0
	}
	return avg
}

// shardHelperEnv names the knowledge-base file a re-executed test binary
// should serve shards from (see TestShardHelperProcess).
const shardHelperEnv = "SYSLOGDIGEST_TEST_SHARD_KB"

// TestShardHelperProcess is not a test: run with shardHelperEnv set, the
// test binary becomes a shard server process, the way sdshard is one. It
// prints "listening ADDR" and serves until its stdin closes.
func TestShardHelperProcess(t *testing.T) {
	path := os.Getenv(shardHelperEnv)
	if path == "" {
		t.Skip("helper process for startShardProcess")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := LoadKnowledgeBase(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: kb.Dictionary(), Rules: kb.RuleBase})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	os.Stdout.WriteString("listening " + srv.Addr() + "\n")
	io.Copy(io.Discard, os.Stdin)
}

// startShardProcess hosts the shards in a child process, so a process-wide
// allocation count in this one sees the dispatcher side of the wire only.
// It returns the child's listen address.
func startShardProcess(t *testing.T, kb *KnowledgeBase) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardHelperProcess$")
	cmd.Env = append(os.Environ(), shardHelperEnv+"="+path)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
			go io.Copy(io.Discard, stdout) // the test framework's own trailer
			return addr
		}
	}
	t.Fatalf("shard helper process exited without listening (scan error: %v)", sc.Err())
	return ""
}

// TestStreamAllocsSmall pins the steady-state allocation budget on the
// small (learnSmall) corpus for every engine shape: serial, sharded
// in-process, and clustered over two loopback shards. The measurement
// counts allocations process-wide, so the shard and merge goroutines' work
// is included — channel backpressure keeps their progress proportional to
// pushes — and the cluster row hosts its shards in a child process so that
// what it counts is the dispatcher: frame encoding, the client's replay
// log and decision decoding, the Seq resolution, and the merge stage.
func TestStreamAllocsSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per push")
	}
	kb, ds := learnSmall(t, gen.DatasetA)
	for _, shape := range []struct {
		name   string
		opts   StreamerOptions
		shards int // > 0: that many remote shards, hosted by one child process
	}{
		{name: "workers1", opts: StreamerOptions{StreamWorkers: 1}},
		{name: "workers4", opts: StreamerOptions{StreamWorkers: 4}},
		{name: "cluster2", shards: 2},
	} {
		t.Run(shape.name, func(t *testing.T) {
			opts := shape.opts
			if shape.shards > 0 {
				addr := startShardProcess(t, kb)
				for k := 0; k < shape.shards; k++ {
					opts.ShardAddrs = append(opts.ShardAddrs, addr)
				}
			}
			warm := len(ds.Messages) / 2
			runs := len(ds.Messages) - warm - 2
			avg := corpusAllocs(t, kb, ds, opts, warm, runs)
			t.Logf("small corpus, %s: %.3f allocs/push", shape.name, avg)
			if avg > allocBudget {
				t.Fatalf("steady-state allocations per push = %.3f, want <= %v", avg, allocBudget)
			}
		})
	}
}

// TestStreamAllocsStorm pins the budget under the flap-storm corpus —
// near-full rule and cross windows, heavy noise — where per-message
// constant factors actually decide throughput.
func TestStreamAllocsStorm(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per push")
	}
	if testing.Short() {
		t.Skip("storm corpus generation is slow")
	}
	storm := learnStorm(t)
	kb, ds := storm.kb, storm.ds
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			warm := len(ds.Messages) * 3 / 4
			runs := len(ds.Messages) - warm - 2
			if runs > 16384 {
				runs = 16384
			}
			avg := corpusAllocs(t, kb, ds, StreamerOptions{StreamWorkers: workers}, warm, runs)
			t.Logf("storm corpus, workers=%d: %.3f allocs/push", workers, avg)
			if avg > allocBudget {
				t.Fatalf("steady-state allocations per push = %.3f, want <= %v", avg, allocBudget)
			}
		})
	}
}

// TestStreamAllocsSyntheticSharded extends the original single-stream guard
// to the sharded engine.
func TestStreamAllocsSyntheticSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per push")
	}
	avg := syntheticAllocs(t, 4)
	t.Logf("synthetic feed, workers=4: %.3f allocs/push", avg)
	if avg > allocBudget {
		t.Fatalf("steady-state allocations per push = %.3f, want <= %v", avg, allocBudget)
	}
}

// Provisional-tier ceilings per push on the large-group fixture below
// (one group of 2048 to 2560 members, republished every sixth push;
// measured 1.4 allocations and 7.7 KB). What is left to allocate is what a
// publication hands its consumer: the event's MessageSeqs and RawIndexes,
// 16 bytes per member per revision — ≈ 6 KB per push at this size — plus
// its small slices and the update record. The member snapshot (152 bytes
// per member per revision; 66 KB per push here before PR 13) and the
// builder's working set recycle.
const (
	provAllocBudget = 3.0
	provBytesBudget = 12 << 10
)

// TestStreamAllocsProvisional extends the allocation guards to the
// provisional tier, which the other guards run without: a single stream
// (one router, one signature, one message a second) that the temporal pass
// keeps in one ever-growing group, with a 4 s provisional horizon so the
// group is revised every sixth push. Counts are process-wide, and
// Streamer.Pending — a barrier that waits for the sharded engine's merge
// stage — brackets the window, so every push's publications are inside it.
// They are net of the one Pending record each push adds to the open group,
// which never closes.
func TestStreamAllocsProvisional(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per push")
	}
	kb, _ := learnSmall(t, gen.DatasetA)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			st := NewStreamerWith(d, StreamerOptions{StreamWorkers: workers, ProvisionalHorizon: 4 * time.Second})
			defer st.Close()
			st.Instrument(reg)
			t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
			const warm, runs = 2048, 512
			var ms [2]runtime.MemStats
			var revised, steps [2]uint64
			pushed := 0
			pushTo := func(n int) {
				for ; pushed < n; pushed++ {
					m := syslogmsg.Message{Time: t0.Add(time.Duration(pushed) * time.Second),
						Router: "x", Code: "A-1-B", Detail: "d"}
					if _, err := st.Push(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			mark := func(k int) {
				if open := st.Pending(); open != pushed {
					t.Fatalf("fixture holds %d messages in open groups after %d pushes, want one group of all", open, pushed)
				}
				revised[k] = reg.Snapshot().Counter("stream.provisional.revised")
				steps[k] = event.MemberSteps()
				runtime.ReadMemStats(&ms[k])
			}
			pushTo(warm)
			mark(0)
			pushTo(warm + runs)
			mark(1)
			pending := float64(unsafe.Sizeof(grouping.Pending{})) // one per push joins the open group
			allocs := float64(ms[1].Mallocs-ms[0].Mallocs)/runs - 1
			bytes := float64(ms[1].TotalAlloc-ms[0].TotalAlloc)/runs - pending
			n, folded := revised[1]-revised[0], steps[1]-steps[0]
			t.Logf("workers=%d: %.2f allocs/push, %.0f B/push, %d revisions over %d pushes folding in %d members",
				workers, allocs, bytes, n, runs, folded)
			if n < runs/8 {
				t.Fatalf("fixture published %d revisions over %d pushes, want one every sixth push", n, runs)
			}
			// The work guard: a revision folds in only the members its group
			// gained since the last one, so the window's revisions fold in one
			// member per push, give or take the pushes between two revisions
			// at either end. Rebuilding would fold in the whole group, ≈ 2 300
			// members, per revision.
			if slack := uint64(runs)/n + 1; folded+slack < runs || folded > runs+slack {
				t.Fatalf("provisional tier: %d revisions folded in %d members over %d pushes, want %d ± %d",
					n, folded, runs, runs, slack)
			}
			if allocs > provAllocBudget || bytes > provBytesBudget {
				t.Fatalf("provisional tier: %.2f allocs/push (ceiling %v), %.0f B/push (ceiling %d)",
					allocs, provAllocBudget, bytes, provBytesBudget)
			}
		})
	}
}
