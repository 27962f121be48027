// Command sdlearn runs the offline domain-knowledge learning half of
// SyslogDigest: it reads historical syslog and router configs and writes a
// knowledge-base JSON for cmd/sddigest.
//
// Usage:
//
//	sdlearn -syslog dataset/syslog.log -configs dataset/configs -kb kb.json
//
// Flags mirror the paper's Table 6 parameters; -calibrate derives alpha and
// beta from the data by the §5.2.3 compression-ratio sweep instead.
// Learning fans out over GOMAXPROCS workers (set the GOMAXPROCS environment
// variable to bound its CPU); the knowledge base is identical at any count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"syslogdigest"
	"syslogdigest/internal/syslogmsg"
)

func main() {
	var (
		syslogPath = flag.String("syslog", "", "historical syslog file or glob, e.g. 'logs/*.log' (required)")
		configDir  = flag.String("configs", "", "directory of router config files (required)")
		kbPath     = flag.String("kb", "kb.json", "output knowledge-base path")
		window     = flag.Duration("w", 120*time.Second, "association mining window W")
		spmin      = flag.Float64("spmin", 0.0005, "minimum item support SPmin")
		confmin    = flag.Float64("confmin", 0.8, "minimum rule confidence Confmin")
		alpha      = flag.Float64("alpha", 0.05, "temporal EWMA weight alpha")
		beta       = flag.Float64("beta", 5, "temporal tolerance beta")
		calibrate  = flag.Bool("calibrate", false, "derive alpha/beta from the data instead of -alpha/-beta")
		expertPath = flag.String("expert", "", "optional expert adjustments file (rule add/del, template names)")
	)
	flag.Parse()
	if *syslogPath == "" || *configDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	msgs, err := syslogmsg.ReadGlob(*syslogPath)
	if err != nil {
		fatalf("read syslog: %v", err)
	}

	entries, err := os.ReadDir(*configDir)
	if err != nil {
		fatalf("read configs: %v", err)
	}
	var configs []*syslogdigest.RouterConfig
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		text, err := os.ReadFile(filepath.Join(*configDir, e.Name()))
		if err != nil {
			fatalf("read %s: %v", e.Name(), err)
		}
		cfg, err := syslogdigest.ParseConfig(string(text))
		if err != nil {
			fatalf("parse %s: %v", e.Name(), err)
		}
		configs = append(configs, cfg)
	}
	if len(configs) == 0 {
		fatalf("no config files in %s", *configDir)
	}

	params := syslogdigest.DefaultParams()
	params.Rules.Window = *window
	params.Rules.SPmin = *spmin
	params.Rules.ConfMin = *confmin
	params.Temporal.Alpha = *alpha
	params.Temporal.Beta = *beta
	params.CalibrateTemporal = *calibrate

	started := time.Now()
	kb, err := syslogdigest.NewLearner(params).Learn(msgs, configs)
	if err != nil {
		fatalf("learn: %v", err)
	}

	if *expertPath != "" {
		ef, err := os.Open(*expertPath)
		if err != nil {
			fatalf("open expert file: %v", err)
		}
		n, err := kb.ApplyExpert(ef)
		ef.Close()
		if err != nil {
			fatalf("expert adjustments: %v", err)
		}
		fmt.Printf("applied %d expert adjustment(s)\n", n)
	}

	out, err := os.Create(*kbPath)
	if err != nil {
		fatalf("create %s: %v", *kbPath, err)
	}
	if err := kb.Save(out); err != nil {
		fatalf("save: %v", err)
	}
	if err := out.Close(); err != nil {
		fatalf("close: %v", err)
	}

	fmt.Printf("learned %d templates, %d rules from %d messages and %d configs in %s -> %s\n",
		len(kb.Templates), kb.RuleBase.Len(), len(msgs), len(configs),
		time.Since(started).Round(time.Millisecond), *kbPath)
	if *calibrate {
		fmt.Printf("calibrated temporal parameters: alpha=%g beta=%g\n",
			kb.Params.Temporal.Alpha, kb.Params.Temporal.Beta)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdlearn: "+format+"\n", args...)
	os.Exit(1)
}
