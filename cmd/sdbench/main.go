// Command sdbench regenerates every table and figure of the paper's
// evaluation against the simulated datasets and prints them in the paper's
// layout; the bench_test.go benchmarks run the same experiments under
// testing.B. It reports results, not speed: performance is measured by
// `go run ./benchmark` (see BENCHMARK.json).
//
// Usage:
//
//	sdbench                  # small profile, both datasets
//	sdbench -profile full    # paper-scale profile (minutes)
//	sdbench -dataset A       # one dataset only
//	sdbench -out results.txt # also write the report to a file
//	sdbench -j 4             # worker parallelism (0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/experiments"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/streamrun"
)

func main() {
	var (
		profileFlag = flag.String("profile", "small", "experiment profile: small or full")
		datasetFlag = flag.String("dataset", "both", "dataset: A, B, or both")
		outPath     = flag.String("out", "", "also write the report to this file")
		workers     = flag.Int("j", 0, "worker parallelism for learning (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
	)
	flag.Parse()

	var profile experiments.Profile
	switch strings.ToLower(*profileFlag) {
	case "small":
		profile = experiments.SmallProfile()
	case "full":
		profile = experiments.FullProfile()
	default:
		fatalf("unknown -profile %q", *profileFlag)
	}

	var kinds []gen.DatasetKind
	switch strings.ToUpper(*datasetFlag) {
	case "A":
		kinds = []gen.DatasetKind{gen.DatasetA}
	case "B":
		kinds = []gen.DatasetKind{gen.DatasetB}
	case "BOTH":
		kinds = []gen.DatasetKind{gen.DatasetA, gen.DatasetB}
	default:
		fatalf("unknown -dataset %q", *datasetFlag)
	}
	profile.Parallelism = *workers

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("create %s: %v", *outPath, err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "SyslogDigest evaluation — profile %q (%d routers, learn %s, online %s)\n\n",
		profile.Name, profile.Routers, profile.LearnDuration, profile.OnlineDuration)

	var table6 []experiments.Table6Row
	for _, kind := range kinds {
		started := time.Now()
		c, err := experiments.Load(kind, profile)
		if err != nil {
			fatalf("load dataset %v: %v", kind, err)
		}
		fmt.Fprintf(out, "===== dataset %s: %d learning msgs, %d online msgs (prepared in %s) =====\n\n",
			kind, len(c.Learn.Messages), len(c.Online.Messages), time.Since(started).Round(time.Millisecond))

		section(out, "Template identification (§5.2.1)", func() string {
			return experiments.TemplateAccuracy(c).String() + "\n"
		})
		section(out, "", func() string {
			rows, err := experiments.Table5(c)
			check(err)
			return experiments.RenderTable5(kind.String(), rows)
		})
		if kind == gen.DatasetA {
			section(out, "", func() string {
				rows, err := experiments.Figure6(c)
				check(err)
				return experiments.RenderFigure6(rows)
			})
		}
		section(out, "", func() string {
			rows, err := experiments.Figure7(c)
			check(err)
			return experiments.RenderFigure7(kind.String(), rows)
		})
		section(out, "", func() string {
			rows, err := experiments.RuleEvolution(c)
			check(err)
			return experiments.RenderRuleEvolution(kind.String(), rows)
		})
		section(out, "", func() string {
			pts, err := experiments.Figure10(c)
			check(err)
			return experiments.RenderSweep(
				fmt.Sprintf("Figure 10 — compression ratio vs alpha (beta=2, dataset %s)", kind), "alpha", pts)
		})
		section(out, "", func() string {
			pts, err := experiments.Figure11(c)
			check(err)
			return experiments.RenderSweep(
				fmt.Sprintf("Figure 11 — compression ratio vs beta (dataset %s)", kind), "beta", pts)
		})
		section(out, "", func() string {
			row, err := experiments.Table6(c)
			check(err)
			table6 = append(table6, row)
			return fmt.Sprintf("Calibrated parameters (dataset %s): alpha=%g beta=%g\n", kind, row.Alpha, row.Beta)
		})
		section(out, "", func() string {
			rows, err := experiments.Table7(c)
			check(err)
			return experiments.RenderTable7(kind.String(), rows)
		})
		section(out, "", func() string {
			rows, err := experiments.Figure12(c)
			check(err)
			return experiments.RenderFigure12(kind.String(), rows)
		})
		section(out, "", func() string {
			rows, err := experiments.Figure13(c)
			check(err)
			return experiments.RenderFigure13(kind.String(), rows, 12)
		})
		section(out, "", func() string {
			exs, err := experiments.Figures4And5(c)
			check(err)
			return experiments.RenderExemplars(kind.String(), exs)
		})
		section(out, "", func() string {
			rows, err := experiments.HealthMap(c, 10*time.Minute)
			check(err)
			return experiments.RenderHealthMap(kind.String(), rows)
		})
		section(out, "Trouble-ticket validation (§5.3)", func() string {
			tv, err := experiments.TicketValidation(c)
			check(err)
			s := tv.Summary
			var b strings.Builder
			fmt.Fprintf(&b, "top %d tickets: %d matched, %d within top 5%% of events, worst rank pct %.1f%%\n",
				s.Tickets, s.Matched, s.WithinTopPct, s.WorstRankPct*100)
			for _, m := range tv.Matches {
				fmt.Fprintf(&b, "  %s %-18s updates=%-3d rank=%-4d pct=%.3f\n",
					m.Ticket.ID, m.Ticket.Kind, m.Ticket.Updates, m.EventRank, m.RankPct)
			}
			return b.String()
		})
		section(out, "Online pipeline metrics (internal/obs)", func() string {
			s, err := pipelineMetrics(c)
			check(err)
			return s
		})
		section(out, "Ablations", func() string {
			var b strings.Builder
			am := experiments.AblationMasking(c)
			fmt.Fprintf(&b, "location masking: accuracy %.1f%% with vs %.1f%% without\n",
				am.WithMasking*100, am.WithoutMasking*100)
			at, err := experiments.AblationTemporal(c)
			check(err)
			fmt.Fprintf(&b, "temporal model: EWMA ratio %.3e vs fixed windows", at.EWMARatio)
			for _, f := range at.Fixed {
				fmt.Fprintf(&b, " %v=%.3e", f.Window, f.Ratio)
			}
			b.WriteByte('\n')
			ad, err := experiments.AblationDeletion(c)
			check(err)
			n := len(ad.ConservativeTotals)
			fmt.Fprintf(&b, "rule deletion after %d weeks: conservative=%d aggressive=%d\n",
				n, ad.ConservativeTotals[n-1], ad.AggressiveTotals[n-1])
			sb, err := experiments.SeverityBaseline(c)
			check(err)
			fmt.Fprintf(&b, "severity baseline retention: sev<=1 %.3e, sev<=3 %.3e, sev<=5 %.3e (digest %.3e)\n",
				sb.Retention[1], sb.Retention[3], sb.Retention[5], sb.DigestRatio)
			if ta, err := experiments.TrendAudit(c); err == nil {
				fmt.Fprintf(&b, "trend auditing: %d level shifts on raw per-router counts vs %d on event counts\n",
					ta.RawShifts, ta.EventShifts)
			}
			return b.String()
		})
	}
	if len(table6) > 0 {
		fmt.Fprintln(out, experiments.RenderTable6(table6))
	}
}

// pipelineMetrics streams the dataset's online half through a fully
// instrumented Streamer + Digester and renders the final metric snapshot —
// the same counters a production deployment exports via -metrics.
func pipelineMetrics(c *experiments.Corpus) (string, error) {
	reg := obs.NewRegistry()
	d, err := core.NewDigester(c.KB)
	if err != nil {
		return "", err
	}
	d.Instrument(reg)
	st := core.NewStreamerWith(d, core.StreamerOptions{})
	st.Instrument(reg)
	err = streamrun.Replay(st, c.Online.Messages, streamrun.ReplayOptions{},
		func(*core.DigestResult) error { return nil })
	if err != nil {
		return "", err
	}
	snap := reg.Snapshot()
	var b strings.Builder
	for _, cv := range snap.Counters {
		fmt.Fprintf(&b, "%-28s %d\n", cv.Name, cv.Value)
	}
	for _, gv := range snap.Gauges {
		fmt.Fprintf(&b, "%-28s %.4g\n", gv.Name, gv.Value)
	}
	for _, hv := range snap.Histograms {
		mean := 0.0
		if hv.Count > 0 {
			mean = hv.Sum / float64(hv.Count)
		}
		fmt.Fprintf(&b, "%-28s count=%d mean=%.4g sum=%.4g\n", hv.Name, hv.Count, mean, hv.Sum)
	}
	return b.String(), nil
}

func section(out io.Writer, title string, f func() string) {
	if title != "" {
		fmt.Fprintf(out, "-- %s --\n", title)
	}
	fmt.Fprintln(out, f())
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbench: "+format+"\n", args...)
	os.Exit(1)
}
