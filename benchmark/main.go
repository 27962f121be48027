// Command benchmark is the repository's benchmark: it drives the product
// path from bytes on a loopback collector socket to events in a handler on
// five named workloads, checks every run against a reference computation,
// and attributes time to layers in a separate traced run. BENCHMARK.json at
// the repository root is its manifest; README.md in this directory explains
// the workloads and metrics.
//
//	go run ./benchmark                                  all workloads, -reps runs each plus a traced run
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                                    one run; the last stdout line is its JSON result
//	go run ./benchmark -compare a.json b.json           do two result sets agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names and units (bench_test.go keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, measured with tracing off.
var endToEnd = []metricDef{
	{"throughput_msgs_per_s", "msgs/s"},
	{"cpu_s_per_mmsg", "s/Mmsg"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics; a workload that does not exercise
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"collector.ingest_ns_per_msg", "ns/msg"},
	{"collector.received", "count"},
	{"collector.dropped", "count"},
	{"collector.udp.truncated", "count"},
	{"collector.tcp.oversized", "count"},
	{"syslogmsg.parse_ns_per_msg", "ns/msg"},
	{"syslogmsg.parse_allocs_per_msg", "allocs/msg"},
	{"core.augment_ns_per_msg", "ns/msg"},
	{"core.augment_miss_ns_per_msg", "ns/msg"},
	{"core.match_cache_hit_ratio", "ratio"},
	{"template.candidates_scanned_per_msg", "count/msg"},
	{"core.push_ns_per_msg", "ns/msg"},
	{"core.reorder_ns_per_msg", "ns/msg"},
	{"core.reordered", "count"},
	{"core.dropped_late", "count"},
	{"grouping.local_step_ns_per_msg", "ns/msg"},
	{"grouping.merge_apply_ns_per_msg", "ns/msg"},
	{"grouping.rule_candidates_per_msg", "count/msg"},
	{"grouping.cross_candidates_per_msg", "count/msg"},
	{"grouping.merges.temporal", "count"},
	{"grouping.merges.rule", "count"},
	{"grouping.merges.cross", "count"},
	{"grouping.open_groups_peak", "count"},
	{"grouping.streams_peak", "count"},
	{"grouping.evictions", "count"},
	{"event.build_ns_per_event", "ns/event"},
	{"event.events_out", "count"},
	{"event.compression_ratio", "ratio"},
	{"stream.observe_ns_per_msg", "ns/msg"},
	{"stream.sharded_observe_ns_per_msg", "ns/msg"},
	{"stream.shard_skew", "ratio"},
	{"stream.merge_lag_p99_ms", "ms"},
	{"cluster.bytes_out_per_msg", "B/msg"},
	{"cluster.bytes_in_per_msg", "B/msg"},
	{"cluster.rtt_p50_ms", "ms"},
	{"cluster.rtt_p99_ms", "ms"},
	{"cluster.dispatcher_cpu_share", "ratio"},
	{"cluster.reconnects", "count"},
	{"cluster.replayed_batches", "count"},
	{"checkpoint.snapshot_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.sharded_snapshot_ms", "ms"},
	{"checkpoint.sharded_restore_ms", "ms"},
	{"checkpoint.sharded_bytes", "bytes"},
	{"template.learn_ms", "ms"},
	{"temporal.calibrate_ms", "ms"},
	{"rules.mine_ms", "ms"},
	{"template.templates", "count"},
	{"rules.rules", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.bytes", "bytes"},
	{"loadgen.undelivered", "count"},
	{"lag.first_signal_p50_ms", "ms"},
	{"lag.first_signal_p99_ms", "ms"},
	{"lag.first_signal_samples", "count"},
	{"lag.final_p50_ms", "ms"},
	{"lag.final_p99_ms", "ms"},
	{"lag.final_samples", "count"},
	{"batch.learn_msgs_per_s", "msgs/s"},
	{"batch.digest_msgs_per_s", "msgs/s"},
	{"runtime.allocs_per_msg", "allocs/msg"},
	{"runtime.bytes_per_msg", "B/msg"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// setupReps is how many times one run sets up; setup_s is their median.
const setupReps = 3

// runConfig is one run: a workload, a seed, a duration, traced or not.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	shardBin string // sdshard binary; "" selects in-process shards
	workDir  string // scratch: knowledge-base files, span files
}

// metricValue is one metric of a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is a run's result; its JSON form is the contract's result line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	passes    int
	transport string
	corpus    [2]int
}

// run sets the workload up setupReps times (keeping the last input), then
// either measures passes for cfg.seconds with tracing off, or makes the
// traced run.
func run(cfg runConfig) (*runResult, error) {
	w := cfg.workload.sized(cfg.seconds, cfg.tiny)
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	var in *input
	var setups []float64
	for r := 0; r < reps; r++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		in, err = setup(w, cfg.seed, cfg.shardBin, cfg.workDir)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()

	res := &runResult{
		Metrics: make(map[string]metricValue),
		corpus:  [2]int{len(in.learn), len(in.msgs)},
	}
	if in.shard != nil {
		res.transport = in.shard.transport()
	}
	var values map[string]float64
	defs := endToEnd
	if cfg.trace {
		var pass passResult
		var err error
		defs = perLayer
		values, pass, err = tracedRun(in, filepath.Join(cfg.workDir, "trace_"+w.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
		}
		res.passes = 1
		res.Attempted, res.Failed = int64(pass.attempted), int64(pass.failed)
	} else {
		var throughput, cpu []float64
		for start := time.Now(); res.passes == 0 || time.Since(start).Seconds() < cfg.seconds; res.passes++ {
			pass, err := runPass(in, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d: %w", w.Name, res.passes, err)
			}
			res.Attempted += int64(pass.attempted)
			res.Failed += int64(pass.failed)
			msgs := float64(max(pass.msgs, 1))
			throughput = append(throughput, msgs/pass.wall.Seconds())
			cpu = append(cpu, pass.cpu.Seconds()/msgs*1e6)
		}
		values = map[string]float64{
			"throughput_msgs_per_s": median(throughput),
			"cpu_s_per_mmsg":        median(cpu),
			"setup_s":               median(setups),
		}
	}
	res.Correct = res.Failed == 0
	for _, def := range defs {
		v := values[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.Name, def.Name)
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	return res, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its JSON result line (default: all workloads)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "with -workload: 1 makes the traced run (per-layer metrics), 0 the timed run (end-to-end metrics)")
		reps         = flag.Int("reps", 3, "without -workload: timed runs per workload")
		scale        = flag.String("scale", "full", "full, or tiny (a few thousand messages per workload; the smoke test's size)")
		out          = flag.String("out", "", "without -workload: write the result set (header, medians, quartiles, values) to this JSON file")
		doCompare    = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *doCompare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		mf, err := readManifest("BENCHMARK.json")
		if err != nil {
			return fail(err)
		}
		a, err := readResultSet(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultSet(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if bad := compare(os.Stdout, mf, a, b); bad > 0 {
			return fail(fmt.Errorf("%d (metric, workload) pairs do not agree", bad))
		}
		return 0
	}
	if *scale != "full" && *scale != "tiny" {
		return fail(fmt.Errorf("unknown -scale %q", *scale))
	}

	const workDir = ".bench_build"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail(err)
	}
	base := runConfig{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", workDir: workDir}

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg := base
		cfg.workload, cfg.trace = w, *trace != 0
		if w.shards > 0 {
			cfg.shardBin = buildShardBinary(workDir)
		}
		res, err := run(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d passes=%d learn=%d feed=%d transport=%q\n",
			w.Name, cfg.seed, res.passes, res.corpus[0], res.corpus[1], res.transport)
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fail(fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted))
		}
		return 0
	}
	base.shardBin = buildShardBinary(workDir)
	return runAll(base, *reps, *scale, *out)
}

// runAll runs every workload reps times untraced and once traced, prints
// each metric by name and unit with its median and quartiles, and writes
// the result set to outPath when given. It returns the exit code: non-zero
// when any workload failed a correctness check.
func runAll(base runConfig, reps int, scale, outPath string) int {
	rs := resultSet{Header: header{
		Seed: base.seed, Seconds: base.seconds, Reps: reps, Scale: scale,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Corpus: make(map[string][2]int), Operations: make(map[string][2]int64),
	}}
	exit := 0
	for _, w := range workloads {
		cfg := base
		cfg.workload = w
		values := make(map[string][]float64)
		var ops [2]int64
		for r := 0; r <= reps; r++ {
			cfg.trace = r == reps // the traced run comes last
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
			ops[0] += res.Attempted
			ops[1] += res.Failed
			rs.Header.Corpus[w.Name] = res.corpus
			if res.transport != "" {
				rs.Header.ClusterTransport = res.transport
			}
		}
		rs.Header.Operations[w.Name] = ops
		verdict := "correct"
		if ops[1] > 0 {
			verdict = "FAILED"
			exit = 1
		}
		fmt.Printf("\n%s: %d operations attempted, %d failed: %s\n", w.Name, ops[0], ops[1], verdict)
		fmt.Printf("  %-38s %-10s %3s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
		for _, def := range endToEnd {
			rs.Results = append(rs.Results, summarize(w.Name, "end_to_end", def, values[def.Name]))
		}
		for _, def := range perLayer {
			rs.Results = append(rs.Results, summarize(w.Name, "per_layer", def, values[def.Name]))
		}
		for _, s := range rs.Results {
			if s.Workload == w.Name {
				fmt.Printf("  %-38s %-10s %3d %14.4f %14.4f %14.4f\n", s.Metric, s.Unit, s.N, s.Median, s.Q1, s.Q3)
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rs, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return exit
}
