package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/template"
)

// The JSON form of the knowledge base is the contract between cmd/sdlearn
// and cmd/sddigest. Router configs are embedded as their rendered text —
// the config *is* the serialization of the location dictionary, exactly as
// in the offline learning design.
//
// Every field of Params is serialized, so a base's Params survive the
// round trip. What a process may vary — the learner's worker count
// (GOMAXPROCS) and the match cache's size (SetMatchCache) — lives outside
// Params, and a knowledge base produces byte-identical digests whatever
// either was when it was learned or loaded.

type kbJSON struct {
	Params    paramsJSON        `json:"params"`
	Templates []templateJSON    `json:"templates"`
	Rules     []rules.Rule      `json:"rules"`
	Freq      []event.FreqEntry `json:"freq"`
	Configs   []string          `json:"configs"`
	Names     map[int]string    `json:"expert_names,omitempty"`
}

type paramsJSON struct {
	Alpha         float64 `json:"alpha"`
	Beta          float64 `json:"beta"`
	SminSeconds   float64 `json:"smin_seconds"`
	SmaxSeconds   float64 `json:"smax_seconds"`
	WindowSeconds float64 `json:"rule_window_seconds"`
	SPmin         float64 `json:"spmin"`
	ConfMin       float64 `json:"confmin"`
	CrossSeconds  float64 `json:"cross_window_seconds"`
	// The scan cap and the mining bounds change output like the windows
	// do; omitted at zero (their defaults) so a base that never set them
	// keeps its bytes.
	MaxScan       int `json:"max_scan,omitempty"`
	MaxItemsPerTx int `json:"max_items_per_tx,omitempty"`
	MinEvidence   int `json:"min_evidence,omitempty"`
	// Template learning options and the calibration switch used to round-
	// trip silently as zero values, so a reloaded knowledge base no longer
	// matched the configuration it was learned with.
	Template  templateOptsJSON `json:"template_options"`
	Calibrate bool             `json:"calibrate_temporal,omitempty"`
}

type templateOptsJSON struct {
	K                int     `json:"k,omitempty"`
	MaxDepth         int     `json:"max_depth,omitempty"`
	NoPreMask        bool    `json:"no_pre_mask,omitempty"`
	MinChildFraction float64 `json:"min_child_fraction,omitempty"`
	MinChildCount    int     `json:"min_child_count,omitempty"`
}

type templateJSON struct {
	ID    int      `json:"id"`
	Code  string   `json:"code"`
	Words []string `json:"words"`
}

// Save writes the knowledge base as JSON.
func (kb *KnowledgeBase) Save(w io.Writer) error {
	out := kbJSON{
		Params: paramsJSON{
			Alpha:         kb.Params.Temporal.Alpha,
			Beta:          kb.Params.Temporal.Beta,
			SminSeconds:   kb.Params.Temporal.Smin.Seconds(),
			SmaxSeconds:   kb.Params.Temporal.Smax.Seconds(),
			WindowSeconds: kb.Params.Rules.Window.Seconds(),
			SPmin:         kb.Params.Rules.SPmin,
			ConfMin:       kb.Params.Rules.ConfMin,
			CrossSeconds:  kb.Params.CrossWindow.Seconds(),
			MaxScan:       kb.Params.MaxScan,
			MaxItemsPerTx: kb.Params.Rules.MaxItemsPerTx,
			MinEvidence:   kb.Params.Rules.MinEvidence,
			Template: templateOptsJSON{
				K:                kb.Params.Template.K,
				MaxDepth:         kb.Params.Template.MaxDepth,
				NoPreMask:        kb.Params.Template.NoPreMask,
				MinChildFraction: kb.Params.Template.MinChildFraction,
				MinChildCount:    kb.Params.Template.MinChildCount,
			},
			Calibrate: kb.Params.CalibrateTemporal,
		},
		Rules: kb.RuleBase.Rules(),
		Freq:  kb.Freq.Entries(),
		Names: kb.ExpertNames,
	}
	for _, t := range kb.Templates {
		out.Templates = append(out.Templates, templateJSON{ID: t.ID, Code: t.Code, Words: t.Words})
	}
	for _, c := range kb.Configs {
		out.Configs = append(out.Configs, netconf.Render(c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// LoadKnowledgeBase reads a knowledge base previously written by Save and
// rebuilds all derived indexes (template matcher, location dictionary).
func LoadKnowledgeBase(r io.Reader) (*KnowledgeBase, error) {
	var in kbJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode knowledge base: %w", err)
	}
	kb := &KnowledgeBase{
		Params: Params{
			Template: template.Options{
				K:                in.Params.Template.K,
				MaxDepth:         in.Params.Template.MaxDepth,
				NoPreMask:        in.Params.Template.NoPreMask,
				MinChildFraction: in.Params.Template.MinChildFraction,
				MinChildCount:    in.Params.Template.MinChildCount,
			},
			MaxScan:           in.Params.MaxScan,
			CalibrateTemporal: in.Params.Calibrate,
		},
	}
	kb.Params.Temporal.Alpha = in.Params.Alpha
	kb.Params.Temporal.Beta = in.Params.Beta
	kb.Params.Temporal.Smin = secs(in.Params.SminSeconds)
	kb.Params.Temporal.Smax = secs(in.Params.SmaxSeconds)
	kb.Params.Rules.Window = secs(in.Params.WindowSeconds)
	kb.Params.Rules.SPmin = in.Params.SPmin
	kb.Params.Rules.ConfMin = in.Params.ConfMin
	kb.Params.Rules.MaxItemsPerTx = in.Params.MaxItemsPerTx
	kb.Params.Rules.MinEvidence = in.Params.MinEvidence
	kb.Params.CrossWindow = secs(in.Params.CrossSeconds)
	kb.Params = kb.Params.normalize()

	for _, t := range in.Templates {
		kb.Templates = append(kb.Templates, template.Template{ID: t.ID, Code: t.Code, Words: t.Words})
	}
	kb.RuleBase = rules.NewRuleBase()
	for _, r := range in.Rules {
		kb.RuleBase.Add(r)
	}
	kb.Freq = event.NewFreqTable()
	for _, e := range in.Freq {
		kb.Freq.Add(e.Router, e.Template, e.Count)
	}
	if len(in.Names) > 0 {
		kb.ExpertNames = in.Names
	}
	for i, text := range in.Configs {
		cfg, err := netconf.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("core: config %d: %w", i, err)
		}
		kb.Configs = append(kb.Configs, cfg)
	}
	if err := kb.finish(); err != nil {
		return nil, err
	}
	return kb, nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
