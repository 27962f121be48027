// Package syslogdigest is a from-scratch reproduction of "What Happened in
// my Network? Mining Network Events from Router Syslogs" (Qiu, Ge, Pei,
// Wang, Xu — IMC 2010).
//
// SyslogDigest transforms massive, minimally-structured router syslog
// streams into a small number of prioritized network events. It learns its
// domain knowledge from data: message templates mined from historical
// syslog, a location dictionary built from router configs, temporal
// (interarrival) patterns per template, and pairwise association rules
// between templates. Online, incoming messages are augmented with template
// and location, grouped by three passes (temporal, rule-based,
// cross-router), scored, labeled, and presented one line per event.
//
// # Quick start
//
//	params := syslogdigest.DefaultParams()
//	kb, err := syslogdigest.NewLearner(params).Learn(history, configs)
//	if err != nil { ... }
//	d, err := syslogdigest.NewDigester(kb)
//	if err != nil { ... }
//	res, err := d.Digest(liveMessages)
//	for _, e := range res.Events {
//	    fmt.Println(e.Digest())
//	}
//
// The types below are aliases into the implementation packages so that the
// whole pipeline is usable through this single import.
package syslogdigest

import (
	"io"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
)

// Core pipeline types.
type (
	// Message is one raw router syslog message.
	Message = syslogmsg.Message
	// PlusMessage is a message augmented with template and location.
	PlusMessage = core.PlusMessage
	// Event is one prioritized network event.
	Event = event.Event
	// Update is one tier-tagged record of the two-tier emission stream:
	// provisional, revised, superseded, or final (see
	// StreamerOptions.ProvisionalHorizon).
	Update = event.Update
	// Status is the tier of one Update.
	Status = event.Status
	// Params bundles the learning and grouping tunables (Table 6 of the
	// paper), exactly what the knowledge base stores. Nothing per-process
	// lives here: learning fans out over GOMAXPROCS, and a streaming run's
	// shape is StreamerOptions.
	Params = core.Params
	// KnowledgeBase is the offline learning output.
	KnowledgeBase = core.KnowledgeBase
	// Learner runs offline domain knowledge learning.
	Learner = core.Learner
	// Digester runs online digesting over a knowledge base. Batch Digest
	// calls group on the serial engine.
	Digester = core.Digester
	// Streamer adapts the digester to a continuous feed: a bounded reorder
	// buffer in front of the incremental engine, emitting each event as
	// soon as the watermark proves it complete.
	Streamer = core.Streamer
	// StreamerOptions are the one place a streaming run's shape is set:
	// reorder tolerance and cap, temporal-state bound, engine (serial,
	// StreamWorkers > 1 sharded, ShardAddrs clustered), and the provisional
	// tier's horizon. Runtime only, never serialized.
	StreamerOptions = core.StreamerOptions
	// DigestResult is one batch's events plus bookkeeping.
	DigestResult = core.DigestResult
	// Stage selects how much of the grouping pipeline runs.
	Stage = core.Stage
	// RouterConfig is one parsed router configuration.
	RouterConfig = netconf.Config
	// Template is one learned message template.
	Template = template.Template
)

// Grouping stages, for the staged (Table 7) ablation.
const (
	StageTemporal      = core.StageTemporal
	StageTemporalRules = core.StageTemporalRules
	StageFull          = core.StageFull
)

// Update tiers (see Update.Status).
const (
	StatusProvisional = event.StatusProvisional
	StatusRevised     = event.StatusRevised
	StatusSuperseded  = event.StatusSuperseded
	StatusFinal       = event.StatusFinal
)

// DefaultParams returns the paper's Table 6 configuration for dataset A;
// dataset B differs only in the rule window (40s) and alpha (0.075).
func DefaultParams() Params { return core.DefaultParams() }

// NewLearner builds an offline learner.
func NewLearner(params Params) *Learner { return core.NewLearner(params) }

// NewDigester builds an online digester over a learned knowledge base.
func NewDigester(kb *KnowledgeBase) (*Digester, error) { return core.NewDigester(kb) }

// NewStreamerWith wraps a digester for continuous feeds. opts is the whole
// shape of the run (StreamerOptions{} is the serial engine behind the
// default reorder buffer, final records only); nothing is inherited from
// the digester.
func NewStreamerWith(d *Digester, opts StreamerOptions) *Streamer {
	return core.NewStreamerWith(d, opts)
}

// RestoreStreamer rebuilds a streamer over d from a Streamer.Snapshot
// taken by an earlier run (same knowledge base required). opts are the
// restored run's own tuning — the worker count may differ from the
// snapshotted run's; the engine reshards. The restored streamer resumes
// mid-stream, emitting each event exactly once across the restart.
func RestoreStreamer(d *Digester, snap []byte, opts StreamerOptions) (*Streamer, error) {
	return core.RestoreStreamer(d, snap, opts)
}

// WriteCheckpoint atomically writes a snapshot to path (temp file + rename:
// a crash mid-write never corrupts the previous checkpoint).
func WriteCheckpoint(path string, snap []byte) error { return checkpoint.WriteFile(path, snap) }

// ReadCheckpoint reads a snapshot written by WriteCheckpoint.
func ReadCheckpoint(path string) ([]byte, error) { return checkpoint.ReadFile(path) }

// LoadKnowledgeBase reads a knowledge base saved with KnowledgeBase.Save.
func LoadKnowledgeBase(r io.Reader) (*KnowledgeBase, error) { return core.LoadKnowledgeBase(r) }

// ParseConfig parses one router configuration in either supported vendor
// dialect.
func ParseConfig(text string) (*RouterConfig, error) { return netconf.Parse(text) }

// RenderConfig serializes a router configuration in its vendor's dialect.
func RenderConfig(c *RouterConfig) string { return netconf.Render(c) }

// ReadMessages reads a serialized syslog stream ("ts|router|code|detail"
// lines). Lenient: malformed lines are skipped, as an operational feed
// requires.
func ReadMessages(r io.Reader) ([]Message, error) {
	sr := syslogmsg.NewReader(r)
	sr.SetLenient(true)
	return sr.ReadAll()
}

// WriteMessages writes messages in the serialized line format.
func WriteMessages(w io.Writer, msgs []Message) error {
	return syslogmsg.WriteAll(w, msgs)
}
