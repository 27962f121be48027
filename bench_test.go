// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus microbenchmarks of the pipeline stages. Each experiment
// benchmark regenerates the corresponding result and logs the rendered rows
// (visible with `go test -bench=. -v` or in -benchmem runs via -run=^$);
// cmd/sdbench prints the same tables without the timing harness. These are
// for profiling one experiment or stage while working; performance claims
// are measured by `go run ./benchmark` (BENCHMARK.json).
//
// Profile: benches run the small profile by default so the whole suite
// finishes in minutes; set SD_BENCH_PROFILE=full for the paper-scale run
// (what EXPERIMENTS.md reports).
package syslogdigest_test

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
	"syslogdigest/internal/experiments"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/par"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
	"syslogdigest/internal/temporal"
)

func benchProfile() experiments.Profile {
	if os.Getenv("SD_BENCH_PROFILE") == "full" {
		return experiments.FullProfile()
	}
	return experiments.SmallProfile()
}

func mustCorpus(b *testing.B, kind gen.DatasetKind) *experiments.Corpus {
	b.Helper()
	c, err := experiments.Load(kind, benchProfile())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

var logOnce sync.Map

// logResult prints a rendered experiment result once per benchmark name.
func logResult(b *testing.B, text string) {
	if _, loaded := logOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable5_SupportSensitivity(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table5(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderTable5(kind.String(), rows))
					b.ReportMetric(rows[1].CoveragePct*100, "coverage_pct@5e-4")
				}
			}
		})
	}
}

func BenchmarkFigure6_RulesVsConfidence(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, experiments.RenderFigure6(rows))
			b.ReportMetric(float64(rows[0].Rules), "rules@conf0.5")
		}
	}
}

func BenchmarkFigure7_RulesVsWindow(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure7(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderFigure7(kind.String(), rows))
					b.ReportMetric(float64(rows[len(rows)-1].Rules), "rules@300s")
				}
			}
		})
	}
}

func BenchmarkFigures8And9_RuleEvolution(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RuleEvolution(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderRuleEvolution(kind.String(), rows))
					final := rows[len(rows)-1]
					b.ReportMetric(float64(final.Total), "final_rules")
					b.ReportMetric(float64(final.Added+final.Deleted), "final_churn")
				}
			}
		})
	}
}

func BenchmarkFigure10_AlphaSweep(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Figure10(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderSweep(
						"Figure 10 — compression ratio vs alpha (beta=2, dataset "+kind.String()+")", "alpha", pts))
					best := pts[0]
					for _, p := range pts {
						if p.Ratio < best.Ratio {
							best = p
						}
					}
					b.ReportMetric(best.Alpha, "best_alpha")
				}
			}
		})
	}
}

func BenchmarkFigure11_BetaSweep(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Figure11(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderSweep(
						"Figure 11 — compression ratio vs beta (dataset "+kind.String()+")", "beta", pts))
					b.ReportMetric(pts[len(pts)-1].Ratio*1e3, "ratio_milli@beta7")
				}
			}
		})
	}
}

func BenchmarkTable6_ChosenParameters(b *testing.B) {
	rows := make([]experiments.Table6Row, 0, 2)
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		c := mustCorpus(b, kind)
		b.ResetTimer()
		var row experiments.Table6Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.Table6(c)
			if err != nil {
				b.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	logResult(b, experiments.RenderTable6(rows))
}

func BenchmarkTable7_CompressionByStage(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table7(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					logResult(b, experiments.RenderTable7(kind.String(), rows))
					b.ReportMetric(rows[2].Ratio*1e3, "ratio_milli_full")
				}
			}
		})
	}
}

func BenchmarkFigure12_DailyCounts(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, experiments.RenderFigure12("A", rows))
		}
	}
}

func BenchmarkFigure13_PerRouter(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure13(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, experiments.RenderFigure13("A", rows, 10))
		}
	}
}

func BenchmarkTemplateAccuracy(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			var r experiments.TemplateAccuracyResult
			for i := 0; i < b.N; i++ {
				r = experiments.TemplateAccuracy(c)
			}
			logResult(b, "Template accuracy (§5.2.1): "+r.String())
			b.ReportMetric(r.Accuracy*100, "accuracy_pct")
		})
	}
}

func BenchmarkTicketValidation(b *testing.B) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		b.Run("dataset"+kind.String(), func(b *testing.B) {
			c := mustCorpus(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tv, err := experiments.TicketValidation(c)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					s := tv.Summary
					logResult(b, fmt.Sprintf(
						"Ticket validation (§5.3, dataset %s): %d/%d top tickets matched, %d within top 5%%, worst rank pct %.1f%%",
						kind, s.Matched, s.Tickets, s.WithinTopPct, s.WorstRankPct*100))
					b.ReportMetric(float64(s.Matched), "matched")
					b.ReportMetric(s.WorstRankPct*100, "worst_rank_pct")
				}
			}
		})
	}
}

func BenchmarkFigures4And5_TemporalPatterns(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exs, err := experiments.Figures4And5(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, experiments.RenderExemplars("A", exs))
		}
	}
}

func BenchmarkFigures14And15_HealthMap(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HealthMap(c, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, experiments.RenderHealthMap("A", rows))
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationMasking(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	var r experiments.AblationMaskingResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMasking(c)
	}
	logResult(b, fmt.Sprintf(
		"Ablation — location masking: accuracy %.1f%% with vs %.1f%% without (%d vs %d templates)",
		r.WithMasking*100, r.WithoutMasking*100, r.LearnedWith, r.LearnedWithout))
	b.ReportMetric(r.WithMasking*100, "with_pct")
	b.ReportMetric(r.WithoutMasking*100, "without_pct")
}

func BenchmarkAblationTemporalVsFixedWindow(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTemporal(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			text := fmt.Sprintf("Ablation — EWMA temporal grouping ratio %.3e vs fixed windows:", r.EWMARatio)
			for _, f := range r.Fixed {
				text += fmt.Sprintf(" %v=%.3e", f.Window, f.Ratio)
			}
			logResult(b, text)
			b.ReportMetric(r.EWMARatio*1e3, "ewma_ratio_milli")
		}
	}
}

func BenchmarkAblationRuleDeletionPolicy(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDeletion(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			n := len(r.ConservativeTotals)
			logResult(b, fmt.Sprintf(
				"Ablation — rule deletion policy after %d weeks: conservative keeps %d rules, aggressive %d",
				n, r.ConservativeTotals[n-1], r.AggressiveTotals[n-1]))
		}
	}
}

func BenchmarkSeverityFilterBaseline(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.SeverityBaseline(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, fmt.Sprintf(
				"Baseline — vendor severity filter retention: sev<=1 %.3e, sev<=3 %.3e, sev<=5 %.3e; digest ratio %.3e",
				r.Retention[1], r.Retention[3], r.Retention[5], r.DigestRatio))
		}
	}
}

// Microbenchmarks: raw throughput of the pipeline stages.

// BenchmarkStageTemplateLearning learns templates from corpus A's learning
// period, where a few thousand distinct (code, detail) pairs repeat across
// the messages, and from the storm-shaped feed of BenchmarkMicroAugmentMiss,
// where nearly every detail is distinct: learning reads each distinct
// detail once, so the storm rows are its worst case, paying for the
// counting and saving nothing.
func BenchmarkStageTemplateLearning(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	storm := stormFeed(b, c)
	for _, row := range []struct {
		name string
		msgs []syslogmsg.Message
	}{{"corpusA", c.Learn.Messages}, {"storm", storm}} {
		for _, j := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/j%d", row.name, j), func(b *testing.B) {
				opt := template.Options{Pool: par.New(j)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ts := template.Learn(row.msgs, opt)
					if len(ts) == 0 {
						b.Fatal("no templates")
					}
				}
				b.ReportMetric(float64(len(row.msgs)), "msgs/op")
			})
		}
	}
}

// BenchmarkStageLearn is the whole offline learner on corpus A's learning
// period, the batch_learn workload's set-up: template learning, augmenting
// the history, temporal calibration and rule mining.
func BenchmarkStageLearn(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	params := experiments.ParamsFor(gen.DatasetA)
	params.CalibrateTemporal = true
	l := core.NewLearner(params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Learn(c.Learn.Messages, c.Learn.Net.Configs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.Learn.Messages)), "msgs/op")
}

func BenchmarkStageAugment(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	msgs := c.Online.Messages
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		m := &msgs[n%len(msgs)]
		n++
		_ = c.KB.Augment(m)
	}
}

// BenchmarkMicroAugmentRepeated measures the augment hot path on the
// repeated-message profile — a small window of messages cycled so the
// match cache (when on) reaches steady-state hit rates, the workload shape
// operational syslog is dominated by. The nocache variant pins the
// uncached floor, which must stay within noise of the pre-cache engine.
func BenchmarkMicroAugmentRepeated(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	msgs := c.Online.Messages
	if len(msgs) > 256 {
		msgs = msgs[:256]
	}
	for _, mode := range []struct {
		name string
		size int
	}{{"cache", 0}, {"nocache", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			c.KB.SetMatchCache(mode.size)
			// The corpus (and its KB) is cached across benchmarks: restore
			// the default cache configuration on the way out.
			defer c.KB.SetMatchCache(0)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				m := &msgs[n%len(msgs)]
				n++
				_ = c.KB.Augment(m)
			}
		})
	}
}

// BenchmarkMicroAugmentMiss measures the augment miss path — tokenize,
// signature match, location parse — on a storm-shaped feed: corpus A's
// network under the rate mix of go run ./benchmark's storm_serial
// workload, where scanner noise with random source addresses and ports
// outnumbers everything else and repeat-message caching cannot help. The
// match cache is off, so every message pays the whole miss path; one op is
// one message, so ns/op and allocs/op are per message.
func BenchmarkMicroAugmentMiss(b *testing.B) {
	benchAugmentStorm(b, -1)
}

// BenchmarkMicroAugmentCached is BenchmarkMicroAugmentMiss with the default
// match cache on: nearly every message still misses, so the difference
// between the two is what the cache itself costs per message (hashing the
// key, a lookup and an insert with its eviction).
func BenchmarkMicroAugmentCached(b *testing.B) {
	benchAugmentStorm(b, 0)
}

// stormFeed is corpus A's network under the rate mix of go run
// ./benchmark's storm_serial workload for 20 minutes: scanner noise with
// random source addresses and ports outnumbers everything else, so nearly
// every message is distinct.
func stormFeed(b *testing.B, c *experiments.Corpus) []syslogmsg.Message {
	storm, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: c.Profile.Routers, Seed: c.Profile.Seed,
		Start:    time.Date(2009, 12, 20, 0, 0, 0, 0, time.UTC),
		Duration: 20 * time.Minute,
		Rates: gen.Rates{
			LinkFlap: 40, Controller: 6, BGPFlap: 20, CPUSpike: 60,
			PeriodicMsg: 12000, Noise: 2400000, Config: 60, EnvAlarm: 24, TunnelFlap: 15,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return storm.Messages
}

// benchAugmentStorm augments the storm-shaped feed one message per op with
// the match cache set to matchCache (see core.KnowledgeBase.SetMatchCache).
func benchAugmentStorm(b *testing.B, matchCache int) {
	c := mustCorpus(b, gen.DatasetA)
	msgs := stormFeed(b, c)
	c.KB.SetMatchCache(matchCache)
	// The corpus (and its KB) is cached across benchmarks: restore the
	// default cache configuration on the way out.
	defer c.KB.SetMatchCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.KB.Augment(&msgs[i%len(msgs)])
	}
}

// BenchmarkMicroProvisionalRevision measures what the provisional tier pays
// per member each time it republishes a group: one group grown to 4096
// members — the two ends of a flapping link, four signatures each,
// interleaved, the shape of the large groups on the paced benchmark feed —
// with a revision due every k joins. One iteration is one growth; every
// publication goes through Merger.Apply's member snapshot and
// Builder.Extend on the identity's accumulator, as in the engines' emit
// step, and the reported ns/member-visit divides the whole iteration by the
// members published (the builder folds in only the members gained since
// the identity's last publication; the snapshot copies them all).
func BenchmarkMicroProvisionalRevision(b *testing.B) {
	const members = 4096
	dict, err := locdict.Build([]*netconf.Config{{Hostname: "r1"}, {Hostname: "r2"}})
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	msgs := make([]grouping.Message, members)
	for i := range msgs {
		r := [2]string{"r1", "r2"}[i%2]
		msgs[i] = grouping.Message{
			Seq: i, Raw: uint64(i), Time: t0.Add(time.Duration(i) * time.Second),
			Router: r, Template: 1 + (i/2)%4, Loc: locdict.IntfLoc(r, "Serial1/0.10/10:0"),
		}
	}
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("every%d", k), func(b *testing.B) {
			cfg := grouping.IncrementalConfig{ProvisionalHorizon: time.Duration(k)*time.Second - time.Nanosecond}
			cfg.Stage = grouping.StageTemporal
			sh, err := grouping.NewShardable(dict, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			merger, pool := sh.NewMerger(), sh.Pool()
			builder := event.NewBuilder(nil, nil)
			accs := map[uint64]*event.Accumulator{} // per published identity, as the engines' emitter keeps them
			visits, builds := 0, 0
			publish := func(closed []grouping.ClosedGroup) {
				for _, gu := range merger.TakeUpdates() {
					if gu.Kind == grouping.UpdateSuperseded {
						delete(accs, gu.ID)
						continue
					}
					acc := accs[gu.ID]
					if acc == nil {
						acc = new(event.Accumulator)
						accs[gu.ID] = acc
					}
					builder.Extend(acc, gu.Members)
					visits += len(gu.Members)
					builds++
				}
				for _, cg := range closed {
					if acc := accs[cg.ID]; acc != nil {
						builder.Extend(acc, cg.Members)
						delete(accs, cg.ID)
					} else {
						builder.BuildGroup(cg.Members)
					}
				}
				merger.Recycle(closed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var js grouping.Joins
				for j := range msgs {
					m := msgs[j]
					m.Time = m.Time.Add(time.Duration(i) * 24 * time.Hour) // time may not run backwards across growths
					p := pool.Get(m)
					closed, err := merger.Apply(p, &js)
					if err != nil {
						b.Fatal(err)
					}
					publish(closed)
					js.Temporal = p // the next message joins this one's group
				}
				js.Temporal = nil
				publish(merger.Drain())
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/member-visit")
			b.ReportMetric(float64(visits)/float64(builds), "members/publication")
		})
	}
}

// BenchmarkMicroRuleStep measures one RouterLocal.Step — resolve the
// location, temporal model, rule window — on two window shapes, with the
// steady-state candidate and match counts reported beside the time so a
// change of shape cannot pass for a change of speed:
//
//   - calm: the benchmark's steady feed. Four flap templates, every pair
//     ruled, one message per 7 s, so the 120 s window holds about 17 entries,
//     13 of them in the arrival's three partner buckets; locations cycle
//     router / interface / another interface, which puts 10 of the 13 on
//     spatially matching locations.
//   - storm: the window full at MaxScan (one message per 100 ms), three in
//     four messages an unruled noise template, so a flap arrival meets 48
//     candidates across three buckets in a 256-entry ring and a noise
//     arrival none: 12 per step.
func BenchmarkMicroRuleStep(b *testing.B) {
	dict, err := locdict.Build([]*netconf.Config{{Hostname: "r1", Interfaces: []netconf.Interface{
		{Name: "Serial1/0.10/10:0"}, {Name: "Serial2/0.20/20:0"},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	rb := rules.NewRuleBase()
	for x := 0; x < 4; x++ {
		for y := x + 1; y < 4; y++ {
			rb.Add(rules.Rule{X: x, Y: y, Support: 0.1, Conf: 0.9})
		}
	}
	locs := []locdict.Location{
		locdict.RouterLoc("r1"), locdict.IntfLoc("r1", "Serial1/0.10/10:0"), locdict.IntfLoc("r1", "Serial2/0.20/20:0"),
	}
	const noise = 4
	for _, shape := range []struct {
		name  string
		every time.Duration
		flap  int // one message in flap carries a flap template, the rest noise
	}{
		{"calm", 7 * time.Second, 1},
		{"storm", 100 * time.Millisecond, 4},
	} {
		b.Run(shape.name, func(b *testing.B) {
			sh, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: grouping.Config{Temporal: temporal.DefaultParams()}})
			if err != nil {
				b.Fatal(err)
			}
			local, pool := sh.NewLocal(0), sh.Pool()
			t0 := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
			var js grouping.Joins
			step := func(i int) {
				m := grouping.Message{Seq: i, Time: t0.Add(time.Duration(i) * shape.every), Router: "r1", Template: noise, Loc: locs[0]}
				if i%shape.flap == 0 {
					k := i / shape.flap
					m.Template, m.Loc = k%4, locs[k%3]
				}
				p := pool.Get(m)
				if err := local.Step(p, &js); err != nil {
					b.Fatal(err)
				}
				p.Release() // no Merger here to consume the pipeline reference
			}
			const warm = 1024 // four times MaxScan: the window is in steady state
			for i := 0; i < warm; i++ {
				step(i)
			}
			before := local.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(warm + i)
			}
			b.StopTimer()
			after := local.Stats()
			b.ReportMetric(float64(after.RuleCandidates-before.RuleCandidates)/float64(b.N), "cands/step")
			b.ReportMetric(float64(after.RulePairs-before.RulePairs)/float64(b.N), "pairs/step")
		})
	}
}

func BenchmarkStageRuleMining(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	events := core.RuleEvents(c.KB.AugmentAll(c.Learn.Messages))
	cfg := experiments.ParamsFor(gen.DatasetA).Rules
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.Mine(events, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "msgs/op")
}

func BenchmarkStageFullDigest(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	d, err := core.NewDigester(c.KB)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Digest(c.Online.Messages)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Events)), "events")
		}
	}
	b.ReportMetric(float64(len(c.Online.Messages)), "msgs/op")
}

// BenchmarkStageStream drives the live path — reorder buffer plus
// incremental engine, one message at a time, Flush at the end — over the
// same corpus as BenchmarkStageFullDigest, so the two msgs/op rates compare
// the streaming engine against the batch digest directly. Each op replays
// the corpus through a fresh Streamer (the late-drop frontier is
// monotonic); with -benchmem, allocs/op scales with open-window state, not
// corpus size — the per-push steady state is pinned by
// TestStreamerSteadyStateAllocs.
func BenchmarkStageStream(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	d, err := core.NewDigester(c.KB)
	if err != nil {
		b.Fatal(err)
	}
	// w1 is the serial engine; w>1 runs the router-sharded engine; cluster2
	// puts two shards behind a loopback shard server in this process, so one
	// profile holds the dispatcher, both ends of the wire and the shards.
	// Output is byte-identical across the rows, so events/op must not move.
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: c.KB.Dictionary(), Rules: c.KB.RuleBase})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rows := []struct {
		name string
		opts core.StreamerOptions
	}{
		{"w1", core.StreamerOptions{StreamWorkers: 1}},
		{"w2", core.StreamerOptions{StreamWorkers: 2}},
		{"w4", core.StreamerOptions{StreamWorkers: 4}},
		{"w8", core.StreamerOptions{StreamWorkers: 8}},
		{"cluster2", core.StreamerOptions{ShardAddrs: []string{srv.Addr(), srv.Addr()}}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			events := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := core.NewStreamerWith(d, row.opts)
				events = 0
				for j := range c.Online.Messages {
					res, err := st.Push(c.Online.Messages[j])
					if err != nil {
						b.Fatal(err)
					}
					if res != nil {
						events += len(res.Events)
					}
				}
				res, err := st.Flush()
				if err != nil {
					b.Fatal(err)
				}
				if res != nil {
					events += len(res.Events)
				}
				st.Close()
			}
			b.ReportMetric(float64(events), "events")
			b.ReportMetric(float64(len(c.Online.Messages)), "msgs/op")
		})
	}
}

func BenchmarkTrendAudit(b *testing.B) {
	// Needs >= 6 online days; derive a week-long low-rate profile when the
	// small profile is active.
	p := benchProfile()
	if p.OnlineDuration < 6*24*time.Hour {
		p.Name = "trend"
		p.OnlineDuration = 7 * 24 * time.Hour
		p.RateScale = 0.25
	}
	c, err := experiments.Load(gen.DatasetA, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TrendAudit(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, fmt.Sprintf(
				"Application — trend auditing (MERCURY-style): %d level shifts on raw per-router counts vs %d on event counts",
				r.RawShifts, r.EventShifts))
			b.ReportMetric(float64(r.RawShifts), "raw_shifts")
			b.ReportMetric(float64(r.EventShifts), "event_shifts")
		}
	}
}

func BenchmarkMicroTemplateMatch(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	m := c.KB.Matcher()
	detail := "Interface Serial1/0/1:0, changed state to down"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Match("LINK-3-UPDOWN", detail); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkMicroSpatialMatch(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	dict := c.KB.Dictionary()
	a, x, ok := pickTwoLocations(c)
	if !ok {
		// Degrading to (a, RouterLoc) would silently benchmark the trivial
		// same-router fast path instead of a real hierarchy walk; the number
		// would look valid while measuring the wrong code.
		b.Skipf("corpus sample has no second location on router %s; cannot exercise SpatialMatch", a.Router)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict.SpatialMatch(a, x)
	}
}

// pickTwoLocations finds two distinct locations on the same router in the
// first 200 online messages; ok is false when the sample has only one.
func pickTwoLocations(c *experiments.Corpus) (locdict.Location, locdict.Location, bool) {
	plus := c.KB.AugmentAll(c.Online.Messages[:200])
	a := plus[0].Loc
	for i := range plus {
		if plus[i].Loc.Router == a.Router && plus[i].Loc != a {
			return a, plus[i].Loc, true
		}
	}
	return a, locdict.Location{}, false
}

func BenchmarkMicroEWMAObserve(b *testing.B) {
	g, err := temporal.NewGrouper(temporal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Observe(t0.Add(time.Duration(i) * 10 * time.Second))
	}
}

func BenchmarkMicroKnowledgeBaseSaveLoad(b *testing.B) {
	c := mustCorpus(b, gen.DatasetA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := c.KB.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadKnowledgeBase(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
