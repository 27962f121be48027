package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/core"
	"syslogdigest/internal/experiments"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

// workload is one named, seeded, parameterised input of the benchmark. The
// sizes are for the 2-core host the benchmark was defined on: one pass of a
// closed-loop workload takes about a second, so a run of -seconds holds
// several passes and reports their median.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string

	routers  int
	learn    int  // learning-corpus messages
	messages int  // feed messages; 0 for an open-loop feed (rate × seconds)
	storm    bool // storm feed with StormParams instead of the calm feed
	batch    bool // no sockets: Learner.Learn + Digester.Digest

	// udpRate, when positive, makes the feed open-loop: one UDP datagram
	// per message on a fixed schedule of this many messages per second.
	// Zero is closed-loop: one TCP connection written as fast as it accepts.
	udpRate float64
	// Engine selection, as core.StreamerOptions spells it.
	streamWorkers int
	shards        int
	provisional   time.Duration
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same
// five in the same order.
var workloads = []workload{
	{
		Name:    "steady_serial",
		Why:     "calm feed over one TCP connection into the serial engine: match-cache hit ratio 0.96 and about 60 open groups, the fast path of every layer; also the single-threaded baseline",
		routers: 80, learn: 100_000, messages: 300_000,
	},
	{
		Name:    "storm_serial",
		Why:     "noise flood plus flaps in 10-minute rule windows: cache hit ratio near 0 and full windows, so miss-path augment, RouterLocal.Step and Merger.Apply dominate and parse matters little",
		routers: 20, learn: 100_000, messages: 150_000, storm: true,
	},
	{
		Name:    "steady_cluster",
		Why:     "calm feed into two remote shards served by an sdshard subprocess: adds wire encode, batch RTT and seq-to-record resolution; the only workload that runs internal/cluster",
		routers: 80, learn: 100_000, messages: 300_000, shards: 2,
	},
	{
		Name:    "paced_sharded",
		Why:     "open-loop UDP at a fixed rate below capacity into the 2-worker sharded engine with the provisional tier: the only workload with datagram loss, dispatch batching and the merge goroutine in the path",
		routers: 80, learn: 100_000, udpRate: 10_000, streamWorkers: 2, provisional: 30 * time.Second,
	},
	{
		Name:    "batch_learn",
		Why:     "no sockets: Learner.Learn with temporal calibration, then Digester.Digest with the final re-rank, so a lookup gain that costs learning or a streaming gain that costs batch shows",
		routers: 80, learn: 150_000, messages: 150_000, batch: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized fixes the feed length for a run: an open-loop feed carries
// rate × seconds messages, and -scale tiny shrinks everything to a few
// thousand messages for the smoke test.
func (w workload) sized(seconds float64, tiny bool) workload {
	if tiny {
		w.learn = 4000
		if w.udpRate > 0 {
			w.udpRate = 5_000
		} else {
			w.messages = 3000
		}
	}
	if w.udpRate > 0 {
		w.messages = int(w.udpRate * seconds)
	}
	return w
}

// streamerOptions is the streaming front-end configuration of the workload;
// shardAddr is the running shard host's address (cluster workload only).
func (w workload) streamerOptions(shardAddr string) core.StreamerOptions {
	opts := core.StreamerOptions{
		StreamWorkers:      max(w.streamWorkers, 1),
		ProvisionalHorizon: w.provisional,
	}
	for i := 0; i < w.shards; i++ {
		opts.ShardAddrs = append(opts.ShardAddrs, shardAddr)
	}
	return opts
}

// input is everything one workload run consumes, built from the seed alone.
type input struct {
	w       workload
	configs []*netconf.Config
	learn   []syslogmsg.Message
	params  core.Params // learner parameters (batch_learn relearns with them)
	kb      *core.KnowledgeBase

	// The feed, three ways: RFC 5424 lines as they go on the wire (each
	// newline-terminated; ends[i] is one past line i's newline), and the
	// messages those lines parse back to, which is what the reference pass
	// and the in-process layers consume.
	wire []byte
	ends []int
	msgs []syslogmsg.Message
	// parseMismatch counts feed messages whose wire form does not parse
	// back to the generated router, code, detail and second.
	parseMismatch int

	ref   reference
	shard *shardHost // cluster workload only
}

func (in *input) line(i int) []byte {
	start := 0
	if i > 0 {
		start = in.ends[i-1]
	}
	return in.wire[start : in.ends[i]-1]
}

// close stops the shard host, if any.
func (in *input) close() {
	if in.shard != nil {
		in.shard.stop()
		in.shard = nil
	}
}

// calmMsgsPerDay is a low estimate of the calm feed's messages per simulated
// day at dataset A's default rates (a day yields 12–22 k at any router
// count: the rates are network-wide), so a first guess is long enough.
const calmMsgsPerDay = 10_000

// genCalm generates the calm feed: dataset A at its default rates, long
// enough for n messages. One dataset serves as both the learning period and
// the online period that follows it, so both share one topology.
func genCalm(seed int64, routers, n int) (*gen.Dataset, error) {
	days := n/calmMsgsPerDay + 1
	for {
		ds, err := gen.Generate(gen.Spec{
			Kind: gen.DatasetA, Routers: routers, Seed: seed,
			Duration: time.Duration(days) * 24 * time.Hour,
		})
		if err != nil {
			return nil, err
		}
		if len(ds.Messages) >= n {
			return ds, nil
		}
		days += days/2 + 1
	}
}

// genStorm generates the storm feed over the learning period's topology
// (same kind, router count and seed): experiments.Corpus.Storm's condition
// mix — moderate link/BGP/tunnel flap episodes under an order-of-magnitude
// noise and periodic-message flood — with the duration a parameter, because
// Corpus.Storm fixes six hours (≈0.9 M messages, 4.5 s to generate) and a
// run sets up several times.
func genStorm(seed int64, routers, n int) (*gen.Dataset, error) {
	scale := float64(routers) / 16
	r := func(v float64) float64 { return v * scale }
	// The mix yields ≈2000 messages per simulated minute per 16 routers.
	minutes := int(float64(n)/(2000*scale)) + 1
	for {
		ds, err := gen.Generate(gen.Spec{
			Kind: gen.DatasetA, Routers: routers, Seed: seed,
			Start:    time.Date(2009, 12, 20, 0, 0, 0, 0, time.UTC),
			Duration: time.Duration(minutes) * time.Minute,
			Rates: gen.Rates{
				LinkFlap: r(40), Controller: r(6), BGPFlap: r(20), CPUSpike: r(60),
				PeriodicMsg: r(12000), Noise: r(2400000), Config: r(60),
				EnvAlarm: r(24), TunnelFlap: r(15),
			},
		})
		if err != nil {
			return nil, err
		}
		if len(ds.Messages) >= n {
			return ds, nil
		}
		minutes += minutes/2 + 1
	}
}

// wirePri is the <pri> every generated line carries (local7.notice).
const wirePri = 189

// worldSeed fixes the simulated network, its learning period and so the
// learned knowledge base for every run. A run's -seed picks which stretch
// of the period after learning is the feed: inputs differ from seed to
// seed (other messages, other events), while what the system has learned —
// which decides, for one, whether the noise template pairs with anything in
// the rule base and fills the rule windows — is a fixed part of the
// workload, not run-to-run noise.
const worldSeed = 3

// setup builds the workload's input from the seed: corpus generation, KB
// learning, line formatting, the reference pass, and (cluster workload) the
// shard host. shardBin is the sdshard binary, empty for the in-process
// fallback; workDir receives the knowledge-base file the subprocess loads.
func setup(w workload, seed int64, shardBin, workDir string) (*input, error) {
	in := &input{w: w}
	// The feed is a window of w.messages out of a quarter more: feeds of
	// two seeds share at least three quarters of their messages, which
	// keeps what differs between seeds well under the host's own noise.
	slack := w.messages / 4
	offset := rand.New(rand.NewSource(seed)).Intn(slack + 1)
	need := w.learn
	if !w.storm {
		need += w.messages + slack
	}
	calm, err := genCalm(worldSeed, w.routers, need)
	if err != nil {
		return nil, fmt.Errorf("calm corpus: %w", err)
	}
	in.configs = calm.Net.Configs
	in.learn = calm.Messages[:w.learn]
	after := calm.Messages[w.learn:]
	if w.storm {
		storm, err := genStorm(worldSeed, w.routers, w.messages+slack)
		if err != nil {
			return nil, fmt.Errorf("storm corpus: %w", err)
		}
		after = storm.Messages
	}
	feed := after[offset : offset+w.messages]

	in.params = experiments.ParamsFor(gen.DatasetA)
	in.params.CalibrateTemporal = w.batch
	in.kb, err = core.NewLearner(in.params).Learn(in.learn, in.configs)
	if err != nil {
		return nil, fmt.Errorf("learn: %w", err)
	}
	if w.storm {
		in.kb.Params = experiments.StormParams(in.kb.Params)
	}

	var buf bytes.Buffer
	in.ends = make([]int, len(feed))
	in.msgs = make([]syslogmsg.Message, len(feed))
	for i := range feed {
		buf.WriteString(syslogmsg.FormatRFC5424(&feed[i], wirePri))
		buf.WriteByte('\n')
		in.ends[i] = buf.Len()
	}
	in.wire = buf.Bytes()
	for i := range feed {
		m, err := syslogmsg.ParseWireBytes(in.line(i), uint64(i), 0)
		g := &feed[i]
		if err != nil || m.Router != g.Router || m.Code != g.Code || m.Detail != g.Detail ||
			!m.Time.Equal(g.Time.Truncate(time.Second)) {
			in.parseMismatch++
		}
		in.msgs[i] = m
	}

	if w.batch {
		in.ref, err = batchReference(in)
	} else {
		in.ref, err = streamReference(in)
	}
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if w.shards > 0 {
		in.shard, err = startShardHost(in.kb, shardBin, workDir)
		if err != nil {
			return nil, fmt.Errorf("shard host: %w", err)
		}
	}
	return in, nil
}

// shardHost is a running shard server: an sdshard subprocess, or the
// in-process fallback when the binary could not be built or spawned.
type shardHost struct {
	addr string
	cmd  *exec.Cmd       // subprocess transport, nil otherwise
	srv  *cluster.Server // in-process fallback, nil otherwise
	kb   string          // knowledge-base file the subprocess loaded
}

func (h *shardHost) transport() string {
	if h.cmd != nil {
		return "subprocess"
	}
	return "inprocess"
}

// buildShardBinary compiles cmd/sdshard into dir; on failure it reports why
// and returns "", which selects the in-process fallback.
func buildShardBinary(dir string) string {
	bin := filepath.Join(dir, "sdshard")
	out, err := exec.Command("go", "build", "-o", bin, "syslogdigest/cmd/sdshard").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: building sdshard failed (%v); using in-process shards\n%s", err, out)
		return ""
	}
	return bin
}

func startShardHost(kb *core.KnowledgeBase, bin, dir string) (*shardHost, error) {
	if bin != "" {
		h, err := spawnShard(kb, bin, dir)
		if err == nil {
			return h, nil
		}
		fmt.Fprintf(os.Stderr, "benchmark: spawning sdshard failed (%v); using in-process shards\n", err)
	}
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: kb.Dictionary(), Rules: kb.RuleBase})
	if err != nil {
		return nil, err
	}
	return &shardHost{addr: srv.Addr(), srv: srv}, nil
}

func spawnShard(kb *core.KnowledgeBase, bin, dir string) (*shardHost, error) {
	f, err := os.CreateTemp(dir, "kb-*.json")
	if err != nil {
		return nil, err
	}
	err = kb.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	cmd := exec.Command(bin, "-kb", f.Name(), "-listen", "127.0.0.1:0", "-quiet")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	h := &shardHost{cmd: cmd, kb: f.Name()}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if rerr != nil || !ok {
		h.stop()
		return nil, fmt.Errorf("sdshard did not announce its address (read %q, %v)", line, rerr)
	}
	h.addr = addr
	return h, nil
}

// stop tears the host down and waits for the subprocess to exit.
func (h *shardHost) stop() {
	if h.srv != nil {
		h.srv.Close()
		return
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reaps it
	_ = h.cmd.Wait()                          // the exit status is the signal
	os.Remove(h.kb)
}

// cpu is the subprocess's user+system CPU time so far, from
// /proc/<pid>/stat (USER_HZ ticks, 10 ms resolution); 0 for the in-process
// transport, whose CPU the benchmark process's own rusage already holds.
func (h *shardHost) cpu() time.Duration {
	if h.cmd == nil {
		return 0
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime fields 14 and 15.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	const userHz = 100
	return time.Duration(utime+stime) * time.Second / userHz
}
